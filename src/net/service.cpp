#include "net/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "net/json.hpp"
#include "net/scan_codec.hpp"
#include "util/contracts.hpp"
#include "util/journal.hpp"
#include "util/json_num.hpp"

namespace wiloc::net {

namespace {

/// Every 503 the service emits carries Retry-After and names the shed
/// reason in the body, so clients can tell backoff-able overload from
/// real failure.
HttpResponse unavailable_json(std::string_view message,
                              std::string_view reason) {
  std::ostringstream out;
  out << "{\"error\":" << json_quote(message) << ",\"reason\":\"" << reason
      << "\"}";
  HttpResponse r = HttpResponse::json(503, out.str());
  r.headers["Retry-After"] = "1";
  return r;
}

/// Forced degraded mode: a read the snapshot could not answer is shed
/// rather than computed.
HttpResponse shed_degraded() {
  return unavailable_json("degraded mode: no snapshot answer for this query",
                          "forced_degraded");
}

/// Reads the optional `now` query parameter into `now` (left empty when
/// absent). A present one must be a finite sim time >= 0; false
/// otherwise.
bool parse_now(const HttpRequest& request, std::optional<double>* now) {
  const QueryNumber q = request.param_num("now");
  *now = q.value;
  return !q.present || (q.value.has_value() && std::isfinite(*q.value) &&
                        *q.value >= 0.0);
}

/// A numeric query parameter that reads `fallback` when absent (and
/// nullopt when malformed).
std::optional<double> param_or(const HttpRequest& request,
                               const std::string& name, double fallback) {
  const QueryNumber q = request.param_num(name);
  return q.present ? q.value : fallback;
}

}  // namespace

WiLocatorService::WiLocatorService(core::WiLocatorServer& server,
                                   ServiceOptions options)
    : server_(server), options_(std::move(options)) {
  // Registered here (not in start()) so the in-process handle() entry
  // point counts too; the registry is get-or-create, so sharing a
  // server between services shares the counters.
  auto& registry = server_.metrics_registry();
  scans_posted_ = &registry.counter("service.scans_posted");
  arrivals_served_ = &registry.counter("service.arrivals_served");
  checkpoint_commits_ = &registry.counter("service.checkpoints_committed");
  checkpoint_failures_ = &registry.counter("service.checkpoint_failures");
  cache_hits_ = &registry.counter("arrival_cache.hits");
  cache_misses_ = &registry.counter("arrival_cache.misses");
  read_slow_path_ = &registry.counter("http.read_slow_path");
  contract_violations_ = &registry.counter("http.contract_violations");
  repl_pages_served_ = &registry.counter("service.repl_pages_served");
  repl_records_served_ = &registry.counter("service.repl_records_served");
  ready_gauge_ = &registry.gauge("service.ready");
  degraded_gauge_ = &registry.gauge("service.degraded");
}

WiLocatorService::~WiLocatorService() { stop(); }

void WiLocatorService::start() {
  WILOC_EXPECTS(!started_);
  ready_gauge_->set(ready() ? 1.0 : 0.0);

  options_.http.registry = &server_.metrics_registry();
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return handle(request); },
      options_.http);
  http_->start();

  if (server_.persistence() != nullptr) {
    server_.set_inline_checkpoints(false);
    checkpointer_ = std::thread([this] { checkpoint_loop(); });
  }
  started_ = true;
}

void WiLocatorService::stop() noexcept {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
  // Stop accepting before the final checkpoint so no handler races the
  // drain below.
  if (http_ != nullptr) http_->stop();
  try {
    {
      std::lock_guard<std::mutex> lock(mu_);
      server_.drain();
      server_.set_inline_checkpoints(true);
    }
    const core::StatePersistence* persist = server_.persistence();
    if (persist != nullptr && !persist->poisoned()) checkpoint();
  } catch (...) {
    // Shutdown is best-effort; a poisoned journal already counted the
    // failure in persist.* metrics.
  }
  // Ordered after the drain: the final reporter line sees every counter.
  if (options_.reporter != nullptr) options_.reporter->flush_final();
  set_ready(false);
}

void WiLocatorService::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  server_.checkpoint();
}

void WiLocatorService::checkpoint_loop() {
  const auto poll = std::chrono::duration<double>(
      std::max(options_.checkpoint_poll_s, 1e-3));
  std::unique_lock<std::mutex> lk(cv_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    cv_.wait_for(lk, poll, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) break;
    lk.unlock();
    // Any failure — publishing, sealing or the snapshot write — is
    // counted and the service keeps serving: an exception escaping this
    // thread would terminate the process.
    try {
      core::WiLocatorServer::PreparedCheckpoint prepared;
      {
        // Prepare shares the handler mutex but is cheap: serialize state
        // in memory + rename the journal. The snapshot write below runs
        // off-lock, concurrent with ingest.
        std::lock_guard<std::mutex> lock(mu_);
        // Publish the observations the engine finished since the last
        // ingest call, and any refresh the coalescing window deferred:
        // when ingest goes quiet, store and snapshot converge within a
        // poll (queries never publish).
        server_.flush_arrivals();
        if (server_.checkpoint_due()) prepared = server_.prepare_checkpoint();
      }
      if (prepared.valid) {
        server_.commit_prepared(std::move(prepared));
        if (checkpoint_commits_ != nullptr) checkpoint_commits_->inc();
      }
    } catch (...) {
      if (checkpoint_failures_ != nullptr) checkpoint_failures_->inc();
    }
    lk.lock();
  }
}

double WiLocatorService::default_now() const {
  return server_.last_event_time().value_or(0.0);
}

HttpResponse WiLocatorService::handle(const HttpRequest& request) {
  try {
    if (request.path == "/healthz") return HttpResponse::text(200, "ok\n");
    if (request.path == "/readyz") return handle_readyz();
    if (request.path == "/metrics") return handle_metrics(request);
    if (request.path == "/v1/scans") return handle_scans(request);
    if (request.path == "/v1/trips") return handle_trips(request);
    if (request.path == "/v1/arrival") return handle_arrival(request);
    if (request.path == "/v1/position") return handle_position(request);
    if (request.path == "/v1/traffic-map") return handle_traffic_map(request);
    if (request.path == "/v1/replication/segments")
      return handle_replication(request);
    return error_json(404, "no such endpoint");
  } catch (const NotFound& e) {
    return error_json(404, e.what());
  } catch (const InvalidArgument& e) {
    return error_json(400, e.what());
  } catch (const ContractViolation&) {
    // A query parameter outside the model's domain (e.g. stop index past
    // the route's last stop) trips a precondition. The violation's own
    // text names source locations, so it stays inside; the counter keeps
    // a real server-side bug behind this fixed 400 visible.
    contract_violations_->inc();
    return error_json(400, "query outside the model's domain");
  }
}

HttpResponse WiLocatorService::handle_scans(const HttpRequest& request) {
  if (request.method != "POST") return method_not_allowed("POST");
  // Shared codec with the load driver and the cluster router's
  // split-by-owner path, so what a router re-encodes is exactly what a
  // node accepts.
  std::string decode_error;
  auto batch = decode_scan_batch(request.body, &decode_error);
  if (!batch.has_value()) return error_json(400, decode_error);

  core::BatchIngestResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result = server_.ingest_batch(*batch);
  }
  if (scans_posted_ != nullptr) scans_posted_->inc(result.submitted);
  return HttpResponse::json(
      200, encode_scan_ack({result.submitted, result.enqueued}));
}

HttpResponse WiLocatorService::handle_trips(const HttpRequest& request) {
  if (request.method != "POST") return method_not_allowed("POST");
  std::string decode_error;
  const auto decoded = decode_trip_request(request.body, &decode_error);
  if (!decoded.has_value()) return error_json(400, decode_error);
  const roadnet::TripId trip = decoded->trip;
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(mu_);
  if (decoded->end) {
    if (!server_.has_trip(trip)) return error_json(404, "unknown trip");
    server_.end_trip(trip);
    out << "{\"trip\":" << trip.value() << ",\"active\":false}";
    return HttpResponse::json(200, out.str());
  }
  const roadnet::RouteId route = *decoded->route;
  if (server_.has_trip(trip)) return error_json(409, "trip already active");
  server_.begin_trip(trip, route);  // throws NotFound on unknown route
  out << "{\"trip\":" << trip.value() << ",\"route\":" << route.value()
      << ",\"active\":true}";
  return HttpResponse::json(200, out.str());
}

HttpResponse WiLocatorService::handle_arrival(const HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  const auto stop_index =
      checked_integer<std::size_t>(request.param_num("stop").value);
  if (!stop_index.has_value())
    return error_json(400, "missing or bad \"stop\"");
  const std::size_t stop = *stop_index;
  // A trip id wins over a route id when both are given, but a present
  // route must still be a number.
  std::optional<roadnet::TripId> trip_key;
  std::optional<roadnet::RouteId> route_key;
  const QueryNumber trip_num = request.param_num("trip");
  const QueryNumber route_num = request.param_num("route");
  if (route_num.malformed()) return error_json(400, "bad \"route\"");
  if (trip_num.present) {
    const auto id = checked_integer<std::uint32_t>(trip_num.value);
    if (!id.has_value()) return error_json(400, "bad \"trip\"");
    trip_key = roadnet::TripId(*id);
  } else if (route_num.present) {
    const auto id = checked_integer<std::uint32_t>(route_num.value);
    if (!id.has_value()) return error_json(400, "bad \"route\"");
    route_key = roadnet::RouteId(*id);
  } else {
    return error_json(400, "need \"trip\" or \"route\"");
  }

  std::optional<double> pinned_now;
  if (!parse_now(request, &pinned_now)) return error_json(400, "bad \"now\"");

  // Fast path without the service lock: the materialized snapshot.
  if (auto fast = arrival_from_snapshot(trip_key, route_key, stop,
                                        pinned_now.has_value()))
    return *std::move(fast);
  if (!pinned_now.has_value() && read_slow_path_ != nullptr)
    read_slow_path_->inc();
  if (forced_degraded_.load(std::memory_order_acquire))
    return shed_degraded();

  std::unique_lock<std::mutex> lock(mu_);
  const double now = pinned_now.value_or(default_now());
  roadnet::TripId trip{};
  std::optional<SimTime> arrival;
  if (trip_key.has_value()) {
    trip = *trip_key;
    if (!server_.has_trip(trip)) return error_json(404, "unknown trip");
    arrival = server_.eta(trip, stop, now);
    if (!arrival.has_value()) return error_json(404, "no position fix yet");
  } else {
    // Route-level query (the rider-facing form): throws NotFound on an
    // unknown route.
    const auto best = server_.route_eta(*route_key, stop, now);
    if (!best.has_value())
      return error_json(404, "no active trip with a fix on this route");
    trip = best->trip;
    arrival = best->arrival;
  }
  lock.unlock();
  if (arrivals_served_ != nullptr) arrivals_served_->inc();
  return HttpResponse::json(
      200, core::encode_arrival_json(trip, stop, now, *arrival));
}

HttpResponse WiLocatorService::snapshot_reply(std::string body,
                                              std::uint64_t epoch) {
  if (cache_hits_ != nullptr) cache_hits_->inc();
  HttpResponse r = HttpResponse::json(200, std::move(body));
  r.headers["X-Cache"] = "hit";
  r.headers["X-Epoch"] = std::to_string(epoch);
  return r;
}

std::optional<HttpResponse> WiLocatorService::arrival_from_snapshot(
    std::optional<roadnet::TripId> trip, std::optional<roadnet::RouteId> route,
    std::size_t stop, bool pinned_now) {
  if (pinned_now) return std::nullopt;
  const auto snap = server_.arrival_snapshot();
  if (snap == nullptr) {
    if (cache_misses_ != nullptr) cache_misses_->inc();
    return std::nullopt;
  }
  const core::TripArrivals* ta =
      trip.has_value() ? snap->find(*trip) : snap->best(*route, stop);
  if (ta == nullptr || stop >= ta->body.size()) {
    if (cache_misses_ != nullptr) cache_misses_->inc();
    return std::nullopt;  // slow path decides 404/400
  }
  if (arrivals_served_ != nullptr) arrivals_served_->inc();
  return snapshot_reply(ta->body[stop], ta->epoch);
}

std::optional<HttpResponse> WiLocatorService::traffic_from_snapshot(
    bool pinned_now) {
  if (pinned_now) return std::nullopt;
  const auto snap = server_.arrival_snapshot();
  if (snap == nullptr || snap->traffic_body == nullptr) {
    if (cache_misses_ != nullptr) cache_misses_->inc();
    return std::nullopt;
  }
  return snapshot_reply(*snap->traffic_body, snap->epoch);
}

HttpResponse WiLocatorService::handle_position(const HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  const auto trip_id =
      checked_integer<std::uint32_t>(request.param_num("trip").value);
  if (!trip_id.has_value()) return error_json(400, "missing or bad \"trip\"");
  const roadnet::TripId trip(*trip_id);
  std::lock_guard<std::mutex> lock(mu_);
  if (!server_.has_trip(trip)) return error_json(404, "unknown trip");
  const auto offset = server_.position(trip);
  if (!offset.has_value()) return error_json(404, "no position fix yet");
  std::ostringstream out;
  out << "{\"trip\":" << trip.value()
      << ",\"offset_m\":" << json_num(*offset) << "}";
  return HttpResponse::json(200, out.str());
}

HttpResponse WiLocatorService::handle_traffic_map(const HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  std::optional<double> pinned_now;
  if (!parse_now(request, &pinned_now)) return error_json(400, "bad \"now\"");
  if (auto fast = traffic_from_snapshot(pinned_now.has_value()))
    return *std::move(fast);
  if (!pinned_now.has_value() && read_slow_path_ != nullptr)
    read_slow_path_->inc();
  if (forced_degraded_.load(std::memory_order_acquire))
    return shed_degraded();
  core::TrafficMap map;
  {
    std::lock_guard<std::mutex> lock(mu_);
    map = server_.traffic_map(pinned_now.value_or(default_now()));
  }
  return HttpResponse::json(200, core::encode_traffic_map_json(map));
}

HttpResponse WiLocatorService::handle_metrics(const HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  // No service mutex: the registry snapshots under its own lock, and
  // the ingest.* render takes each shard's state lock in turn. A busy
  // worker re-takes that lock batch after batch, so under saturation a
  // scrape can wait until its shard's queue (at most queue_capacity
  // scans) drains.
  const obs::Snapshot snap = server_.metrics_snapshot();
  const auto format = request.param("format");
  if (format.has_value() && *format == "prometheus") {
    HttpResponse r = HttpResponse::text(200, snap.prometheus());
    r.headers["Content-Type"] = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  }
  return HttpResponse::json(200, snap.json());
}

HttpResponse WiLocatorService::handle_replication(const HttpRequest& request) {
  if (request.method != "GET") return method_not_allowed("GET");
  const core::StatePersistence* persist = server_.persistence();
  if (persist == nullptr)
    return error_json(404, "persistence disabled: nothing to tail");
  const auto after =
      checked_integer<std::uint64_t>(param_or(request, "after", 0.0));
  if (!after.has_value()) return error_json(400, "bad \"after\"");
  const auto want =
      checked_integer<std::size_t>(param_or(request, "max_bytes", 0.0));
  if (!want.has_value()) return error_json(400, "bad \"max_bytes\"");
  std::size_t max_bytes = kReplicationPageBytes;
  if (*want > 0) max_bytes = std::min(max_bytes, *want);

  core::StatePersistence::TailResult tail;
  std::uint64_t head_seq = 0;
  {
    // Under the service mutex: serializes the file reads against
    // seal_journal() on the checkpoint prepare path (commit runs
    // off-lock but only ever *removes* a fully-snapshot-covered file).
    std::lock_guard<std::mutex> lock(mu_);
    tail = server_.tail_journal(*after, max_bytes);
    head_seq = persist->last_seq();
  }
  if (repl_pages_served_ != nullptr) repl_pages_served_->inc();
  if (repl_records_served_ != nullptr)
    repl_records_served_->inc(tail.records);

  HttpResponse r;
  r.status = 200;
  r.headers["Content-Type"] = "application/octet-stream";
  r.headers["X-First-Seq"] = std::to_string(tail.first_seq);
  r.headers["X-Last-Seq"] = std::to_string(tail.last_seq);
  r.headers["X-Head-Seq"] = std::to_string(head_seq);
  r.headers["X-Records"] = std::to_string(tail.records);
  r.headers["X-Truncated"] = tail.truncated ? "1" : "0";
  r.headers["X-Compacted-Through"] =
      std::to_string(persist->compacted_through());
  r.body.assign(reinterpret_cast<const char*>(tail.frames.data()),
                tail.frames.size());
  return r;
}

WiLocatorService::ReplicationApply WiLocatorService::apply_replication_frames(
    std::span<const std::byte> frames) {
  ReplicationApply result;
  std::lock_guard<std::mutex> lock(mu_);
  journal::scan_frames(frames, [&](std::span<const std::byte> payload) {
    // Undecodable payload inside a CRC-clean frame (or an unknown record
    // type): skip it, like recovery.
    const auto entry = core::decode_journal_entry(payload);
    if (!entry.has_value()) return;
    ++result.records;
    result.last_seq = std::max(result.last_seq, entry->seq);
    if (server_.apply_replicated(entry->type, entry->obs)) ++result.applied;
  });
  // Replicated recents move the store epoch; push them into the
  // materialized read path so failover answers see them promptly.
  if (result.applied > 0) server_.flush_arrivals();
  return result;
}

HttpResponse WiLocatorService::handle_readyz() const {
  const bool stopping = stopping_.load(std::memory_order_acquire);
  const bool up = ready() && !stopping;
  std::ostringstream out;
  out << "{\"ready\":" << (up ? "true" : "false")
      << ",\"recovered\":" << (server_.recovered() ? "true" : "false")
      << ",\"degraded\":" << (degraded() ? "true" : "false");
  {
    // Per-peer replication lag (cluster mode): orchestrators gate
    // traffic on convergence — records behind + seconds since caught up.
    ReplicationLagProvider provider;
    {
      std::lock_guard<std::mutex> lock(lag_mu_);
      provider = lag_provider_;
    }
    if (provider) {
      out << ",\"replication\":[";
      bool first = true;
      for (const PeerLag& lag : provider()) {
        if (!first) out << ",";
        first = false;
        out << "{\"peer\":" << json_quote(lag.peer)
            << ",\"records_behind\":" << lag.records_behind
            << ",\"seconds_behind\":" << json_num(lag.seconds_behind)
            << ",\"reachable\":" << (lag.reachable ? "true" : "false")
            << "}";
      }
      out << "]";
    }
  }
  if (!up) out << ",\"reason\":\"" << (stopping ? "stopping" : "warming_up")
               << "\"";
  out << "}";
  HttpResponse r = HttpResponse::json(up ? 200 : 503, out.str());
  if (!up) r.headers["Retry-After"] = "1";
  return r;
}

}  // namespace wiloc::net
