#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "net/json.hpp"
#include "net/scan_codec.hpp"
#include "util/contracts.hpp"

namespace wiloc::cluster {

namespace {

using net::error_json;
using net::method_not_allowed;

net::HttpResponse no_replica_503(double retry_after_s) {
  net::HttpResponse r =
      error_json(503, "no replica available for this request");
  r.headers["Retry-After"] =
      std::to_string(static_cast<long>(std::ceil(retry_after_s)));
  return r;
}

/// Upstream headers the router must NOT relay: serialize() re-derives
/// framing from the proxied body and our own keep-alive decision.
bool hop_by_hop(const std::string& name) {
  return name == "Content-Length" || name == "Connection" ||
         name == "Keep-Alive" || name == "Transfer-Encoding";
}

net::HttpResponse relay(const net::ClientResponse& upstream) {
  net::HttpResponse r;
  r.status = upstream.status;
  r.body = upstream.body;
  for (const auto& [name, value] : upstream.headers)
    if (!hop_by_hop(name)) r.headers[name] = value;
  return r;
}

}  // namespace

ClusterRouter::ClusterRouter(std::vector<NodeInfo> nodes,
                             RouterOptions options)
    : nodes_(std::move(nodes)),
      options_(options),
      membership_(nodes_, options.probe_failures),
      ring_(nodes_.size()) {
  WILOC_EXPECTS(!nodes_.empty());
  client_pools_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    client_pools_.push_back(std::make_unique<NodePool>());
  acked_scans_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    acked_scans_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  m_proxied_ = &registry_.counter("router.proxied");
  m_failovers_ = &registry_.counter("router.failovers");
  m_upstream_errors_ = &registry_.counter("router.upstream_errors");
  m_no_replica_ = &registry_.counter("router.no_replica_503");
  m_probe_failures_ = &registry_.counter("router.probe_failures");
  m_reregistrations_ = &registry_.counter("router.reregistrations");
  m_healthy_nodes_ = &registry_.gauge("router.healthy_nodes");
  m_healthy_nodes_->set(static_cast<double>(nodes_.size()));
}

ClusterRouter::~ClusterRouter() { stop(); }

void ClusterRouter::start() {
  WILOC_EXPECTS(!started_);
  started_ = true;
  net::HttpServerOptions http = options_.http;
  if (http.registry == nullptr) http.registry = &registry_;
  http_ = std::make_unique<net::HttpServer>(
      [this](const net::HttpRequest& request) { return handle(request); },
      http);
  http_->start();
  prober_ = std::thread([this] { probe_loop(); });
}

void ClusterRouter::stop() noexcept {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
  if (http_ != nullptr) http_->stop();
}

std::vector<std::uint64_t> ClusterRouter::acked_scans_by_node() const {
  std::vector<std::uint64_t> out;
  out.reserve(acked_scans_.size());
  for (const auto& a : acked_scans_)
    out.push_back(a->load(std::memory_order_relaxed));
  return out;
}

net::HttpResponse ClusterRouter::handle(const net::HttpRequest& request) {
  try {
    if (request.path == "/healthz")
      return net::HttpResponse::text(200, "ok\n");
    if (request.path == "/readyz") return handle_readyz();
    if (request.path == "/metrics") return handle_metrics(request);
    if (request.path == "/v1/scans") return handle_scans(request);
    if (request.path == "/v1/trips") return handle_trips(request);
    if (request.path == "/v1/arrival") {
      if (request.param_num("trip").present) return handle_trip_read(request);
      const net::QueryNumber route = request.param_num("route");
      if (!route.present)
        return handle_any_node(request);  // upstream explains the 400
      if (!net::checked_integer<std::uint32_t>(route.value).has_value())
        return error_json(400, "bad \"route\"");
      return handle_route_arrival(request);
    }
    if (request.path == "/v1/position") return handle_trip_read(request);
    if (request.path == "/v1/traffic-map") return handle_any_node(request);
    return error_json(404, "no such endpoint");
  } catch (const InvalidArgument& e) {
    return error_json(400, e.what());
  }
}

net::HttpResponse ClusterRouter::handle_scans(
    const net::HttpRequest& request) {
  if (request.method != "POST") return method_not_allowed("POST");
  std::string decode_error;
  auto batch = net::decode_scan_batch(request.body, &decode_error);
  if (!batch.has_value()) return error_json(400, decode_error);
  if (batch->empty())
    return net::HttpResponse::json(200, net::encode_scan_ack({}));

  // Split by each trip's first live replica and forward per node. Nodes
  // that fail mid-request are excluded and their slice re-split — the
  // in-request ladder, mirrored from forward_ladder. Any slice that
  // exhausts its replicas fails the WHOLE request with 503: scans
  // already landed stay (at-least-once; nodes dedup the client's
  // retransmit via the per-trip ingest-order guard) but nothing gets
  // acked, so an acked scan is always on some node.
  std::vector<bool> excluded(nodes_.size(), false);
  const auto choose = [&](std::uint64_t trip) -> std::optional<std::size_t> {
    for (const std::size_t node : ring_.ranked(trip))
      if (!excluded[node] && membership_.healthy(node)) return node;
    return std::nullopt;
  };

  net::ScanAck total;
  std::vector<std::uint64_t> acked(nodes_.size(), 0);
  std::vector<core::ScanSubmission> pending = std::move(*batch);
  for (std::size_t attempt = 0;
       !pending.empty() && attempt < nodes_.size(); ++attempt) {
    // Group the still-unacked submissions by their current target.
    std::vector<std::vector<core::ScanSubmission>> groups(nodes_.size());
    for (core::ScanSubmission& sub : pending) {
      const auto node = choose(sub.trip.value());
      if (!node.has_value()) {
        m_no_replica_->inc();
        return no_replica_503(options_.http.retry_after_s);
      }
      groups[*node].push_back(std::move(sub));
    }
    pending.clear();

    for (std::size_t node = 0; node < groups.size(); ++node) {
      std::vector<core::ScanSubmission>& group = groups[node];
      if (group.empty()) continue;
      bool ok = true;
      for (const core::ScanSubmission& sub : group) {
        if (!ensure_registered(node, sub.trip.value())) {
          ok = false;
          break;
        }
      }
      net::ClientResponse upstream;
      if (ok) {
        try {
          upstream = forward_to(node, request.path,
                                net::encode_scan_batch(group), true);
        } catch (const Error&) {
          m_upstream_errors_->inc();
          membership_.report_failure(node);
          ok = false;
        }
      }
      if (ok && upstream.status != 200) ok = false;
      if (!ok) {
        m_failovers_->inc();
        excluded[node] = true;
        for (core::ScanSubmission& sub : group)
          pending.push_back(std::move(sub));
        continue;
      }
      membership_.report_success(node);
      const net::ScanAck ack = net::decode_scan_ack(upstream.body);
      total.submitted += ack.submitted;
      total.enqueued += ack.enqueued;
      acked[node] += ack.submitted;
    }
  }
  if (!pending.empty()) {
    m_no_replica_->inc();
    return no_replica_503(options_.http.retry_after_s);
  }

  // Every slice was acknowledged by some node — only now does the
  // ledger (and the client) see the scans as acked.
  for (std::size_t node = 0; node < acked.size(); ++node)
    if (acked[node] != 0)
      acked_scans_[node]->fetch_add(acked[node], std::memory_order_relaxed);
  return net::HttpResponse::json(200, net::encode_scan_ack(total));
}

net::HttpResponse ClusterRouter::handle_trips(
    const net::HttpRequest& request) {
  if (request.method != "POST") return method_not_allowed("POST");
  // The node's own decoder: a body it would refuse is refused here with
  // the same 400, before any hop.
  std::string decode_error;
  const auto decoded = net::decode_trip_request(request.body, &decode_error);
  if (!decoded.has_value()) return error_json(400, decode_error);
  const std::uint64_t trip = decoded->trip.value();

  // Registration is idempotent on the upstream (409 = already active),
  // so the POST rides the retry ladder like a read.
  std::size_t served_by = nodes_.size();
  net::HttpResponse response = forward_ladder(ring_.ranked(trip), request,
                                              true, trip, false, &served_by);
  if (decoded->end) {
    if (response.status == 200 || response.status == 404) {
      std::lock_guard<std::mutex> lock(routes_mu_);
      trip_routes_.erase(trip);
      trip_registered_.erase(trip);
    }
    return response;
  }
  if ((response.status == 200 || response.status == 409) &&
      served_by < nodes_.size()) {
    // Remember the placement so scans/reads can lazily re-register the
    // trip on a failover target.
    std::lock_guard<std::mutex> lock(routes_mu_);
    trip_routes_[trip] = decoded->route->value();
    trip_registered_[trip].insert(served_by);
    if (response.status == 409) response.status = 200;
  }
  return response;
}

net::HttpResponse ClusterRouter::handle_trip_read(
    const net::HttpRequest& request) {
  // An absent or malformed trip: any node answers the 400 it deserves.
  const net::QueryNumber trip_num = request.param_num("trip");
  if (!trip_num.has_value()) return handle_any_node(request);
  const auto trip = net::checked_integer<std::uint32_t>(trip_num.value);
  if (!trip.has_value()) return error_json(400, "bad \"trip\"");
  return forward_ladder(ring_.ranked(*trip), request, true, *trip, true);
}

net::HttpResponse ClusterRouter::handle_route_arrival(
    const net::HttpRequest& request) {
  // A route's trips shard across nodes, so the rider-facing "soonest
  // bus on my route" query scatters to every healthy node and keeps
  // the earliest predicted arrival.
  std::optional<net::HttpResponse> best;
  double best_arrival = 0.0;
  std::optional<net::HttpResponse> miss;  ///< best non-200 fallback
  bool any_answered = false;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    if (!membership_.healthy(node)) continue;
    net::ClientResponse upstream;
    try {
      upstream = forward_to(node, request.target, std::nullopt, true);
    } catch (const Error&) {
      m_upstream_errors_->inc();
      membership_.report_failure(node);
      continue;
    }
    membership_.report_success(node);
    any_answered = true;
    if (upstream.status != 200) {
      // Prefer a 404 ("no trip with a fix") over a transient 4xx/5xx.
      if (!miss.has_value() || upstream.status == 404)
        miss = relay(upstream);
      continue;
    }
    const auto arrival =
        net::json_number_member(upstream.body, "arrival_time");
    if (!arrival.has_value()) continue;
    if (!best.has_value() || *arrival < best_arrival) {
      best = relay(upstream);
      best_arrival = *arrival;
    }
  }
  if (best.has_value()) return *std::move(best);
  if (miss.has_value()) return *std::move(miss);
  if (!any_answered) {
    m_no_replica_->inc();
    return no_replica_503(options_.http.retry_after_s);
  }
  return error_json(404, "no active trip with a fix on this route");
}

net::HttpResponse ClusterRouter::handle_any_node(
    const net::HttpRequest& request) {
  return forward_ladder(ring_.ranked(0), request,
                        request.method == "GET", 0, false);
}

net::HttpResponse ClusterRouter::handle_readyz() {
  const std::size_t healthy = membership_.healthy_count();
  std::ostringstream out;
  out << "{\"ready\":" << (healthy > 0 ? "true" : "false")
      << ",\"healthy_nodes\":" << healthy << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"id\":" << net::json_quote(nodes_[i].id)
        << ",\"addr\":" << net::json_quote(nodes_[i].host + ":" +
                                           std::to_string(nodes_[i].port))
        << ",\"healthy\":" << (membership_.healthy(i) ? "true" : "false")
        << ",\"consecutive_failures\":" << membership_.failures(i)
        << ",\"acked_scans\":"
        << acked_scans_[i]->load(std::memory_order_relaxed) << "}";
  }
  out << "]}";
  return net::HttpResponse::json(healthy > 0 ? 200 : 503, out.str());
}

net::HttpResponse ClusterRouter::handle_metrics(
    const net::HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  const obs::Snapshot snap = registry_.snapshot();
  const auto format = request.param("format");
  if (format.has_value() && *format == "prometheus") {
    net::HttpResponse r = net::HttpResponse::text(200, snap.prometheus());
    r.headers["Content-Type"] = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  }
  return net::HttpResponse::json(200, snap.json());
}

net::HttpResponse ClusterRouter::forward_ladder(
    const std::vector<std::size_t>& order, const net::HttpRequest& request,
    bool idempotent, std::uint64_t trip_key, bool has_trip_key,
    std::size_t* served_by) {
  std::optional<net::HttpResponse> busy;  ///< last 503/429 answer
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t node = order[rank];
    if (!membership_.healthy(node)) continue;
    if (rank != 0) m_failovers_->inc();
    // A failover target may never have seen this trip — re-register it
    // from the router's trip->route cache before asking.
    if (has_trip_key && !ensure_registered(node, trip_key)) continue;
    net::ClientResponse upstream;
    try {
      upstream = forward_to(node, request.target,
                            request.method == "GET"
                                ? std::nullopt
                                : std::make_optional(request.body),
                            idempotent);
    } catch (const Error&) {
      m_upstream_errors_->inc();
      membership_.report_failure(node);
      continue;
    }
    membership_.report_success(node);
    if (upstream.status == 503 || upstream.status == 429) {
      // The node is alive but shedding — another replica may have
      // headroom. Keep its answer (it carries Retry-After) in case
      // every replica is busy.
      busy = relay(upstream);
      continue;
    }
    if (served_by != nullptr) *served_by = node;
    return relay(upstream);
  }
  if (busy.has_value()) return *std::move(busy);
  m_no_replica_->inc();
  return no_replica_503(options_.http.retry_after_s);
}

net::ClientResponse ClusterRouter::forward_to(
    std::size_t node, const std::string& target,
    const std::optional<std::string>& body, bool idempotent) {
  m_proxied_->inc();
  // On a transport error the throw destroys the checked-out client —
  // the suspect connection closes and the pool reconnects lazily.
  std::unique_ptr<net::HttpClient> client = checkout_client(node);
  net::ClientResponse response =
      !body.has_value()
          ? client->get(target)
          : client->post(target, *body, "application/json", idempotent);
  checkin_client(node, std::move(client));
  return response;
}

bool ClusterRouter::ensure_registered(std::size_t node, std::uint64_t trip) {
  std::uint64_t route = 0;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    const auto seen = trip_registered_.find(trip);
    if (seen != trip_registered_.end() && seen->second.count(node) != 0)
      return true;
    const auto it = trip_routes_.find(trip);
    // Unknown placement (router restarted, or the trip was never
    // registered through us): forward anyway and let the node answer.
    if (it == trip_routes_.end()) return true;
    route = it->second;
  }
  std::ostringstream body;
  body << "{\"trip\":" << trip << ",\"route\":" << route << "}";
  net::ClientResponse response;
  try {
    response = forward_to(node, "/v1/trips", body.str(), true);
  } catch (const Error&) {
    m_upstream_errors_->inc();
    membership_.report_failure(node);
    return false;
  }
  membership_.report_success(node);
  if (response.status != 200 && response.status != 409) return false;
  {
    // The trip may have ended (and been erased) while we registered;
    // only remember the node if the placement entry still exists.
    std::lock_guard<std::mutex> lock(routes_mu_);
    const auto it = trip_routes_.find(trip);
    if (it != trip_routes_.end()) trip_registered_[trip].insert(node);
  }
  m_reregistrations_->inc();
  return true;
}

void ClusterRouter::probe_loop() {
  // The prober owns its own connections, so a slow probe never holds a
  // pooled proxy connection.
  std::vector<std::unique_ptr<net::HttpClient>> probes;
  probes.reserve(nodes_.size());
  for (const NodeInfo& node : nodes_)
    probes.push_back(std::make_unique<net::HttpClient>(node.host, node.port,
                                                       options_.client));
  while (!stopping_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      bool up = false;
      try {
        up = probes[i]->get("/healthz").status == 200;
      } catch (const Error&) {
        up = false;
      }
      if (up) {
        membership_.report_success(i);
      } else {
        membership_.report_failure(i);
        m_probe_failures_->inc();
        probes[i]->disconnect();
      }
    }
    m_healthy_nodes_->set(static_cast<double>(membership_.healthy_count()));
    // Chunked sleep so stop() never waits out a full probe interval.
    double left = std::max(options_.probe_interval_s, 1e-3);
    while (left > 0.0 && !stopping_.load(std::memory_order_acquire)) {
      const double step = std::min(left, 0.005);
      std::this_thread::sleep_for(std::chrono::duration<double>(step));
      left -= step;
    }
  }
}

std::unique_ptr<net::HttpClient> ClusterRouter::checkout_client(
    std::size_t node) {
  NodePool& pool = *client_pools_[node];
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    if (pool.idle != nullptr) return std::move(pool.idle);
  }
  return std::make_unique<net::HttpClient>(nodes_[node].host,
                                           nodes_[node].port,
                                           options_.client);
}

void ClusterRouter::checkin_client(std::size_t node,
                                   std::unique_ptr<net::HttpClient> client) {
  // One idle connection per node covers the router's one serving
  // thread; a concurrent caller's extra connection is simply closed.
  NodePool& pool = *client_pools_[node];
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.idle == nullptr) pool.idle = std::move(client);
}

}  // namespace wiloc::cluster
