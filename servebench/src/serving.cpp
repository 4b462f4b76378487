#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"

namespace servebench {

namespace {

using namespace wiloc;

std::string fmt12(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Number after `"key":` in a flat JSON body (nullopt when absent).
std::optional<double> json_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto at = body.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* p = body.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p) return std::nullopt;
  return v;
}

void sleep_until_s(double t) {
  const double dt = t - now_s();
  if (dt > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

// -- spans of the traced run ----------------------------------------------

class SpanLog {
 public:
  void add(std::string name, double start, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_id_++;
    spans_.push_back({id, 0, id, std::move(name), start, end});
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Wraps a handler so every call records a span named "<who> METHOD path".
net::HttpHandler timed(std::string who, SpanLog* log, net::HttpHandler inner) {
  return [who = std::move(who), log, inner = std::move(inner)](
             const net::HttpRequest& request) {
    const double t0 = now_s();
    net::HttpResponse response = inner(request);
    log->add(who + " " + request.method + " " + request.path, t0, now_s());
    return response;
  };
}

// -- the deployment under test ----------------------------------------------

/// One serving node. Declaration order is teardown order reversed: the
/// tailer and the timing front reference the service, which references
/// the server.
struct Node {
  std::string dir;
  std::unique_ptr<core::WiLocatorServer> server;
  std::unique_ptr<net::WiLocatorService> service;
  std::unique_ptr<net::HttpServer> front;  ///< traced runs only
  std::unique_ptr<cluster::ReplicationTailer> tailer;

  std::uint16_t port() const {
    return front != nullptr ? front->port() : service->port();
  }
};

struct Deployment {
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<cluster::ClusterRouter> router;
  std::unique_ptr<net::HttpServer> router_front;  ///< traced runs only
  bool stopped = false;

  std::uint16_t entry_port() const {
    if (router_front != nullptr) return router_front->port();
    if (router != nullptr) return router->port();
    return nodes.front()->port();
  }

  /// Stops traffic sources first, then drains every service (final
  /// checkpoint included). Servers stay alive for the checks.
  void stop() noexcept {
    if (stopped) return;
    stopped = true;
    if (router_front != nullptr) router_front->stop();
    if (router != nullptr) router->stop();
    for (auto& n : nodes)
      if (n->tailer != nullptr) n->tailer->stop();
    for (auto& n : nodes) {
      if (n->front != nullptr) n->front->stop();
      n->service->stop();
    }
  }

  ~Deployment() {
    stop();
    router_front.reset();
    router.reset();
    for (auto& n : nodes) {
      n->tailer.reset();
      n->front.reset();
      n->service.reset();
      n->server.reset();
      std::error_code ec;
      std::filesystem::remove_all(n->dir, ec);
    }
  }
};

/// Builds, trains and starts the deployment; returns once /readyz on the
/// entry port answers 200. `*setup_s` times exactly that span.
std::unique_ptr<Deployment> deploy(const Inputs& in,
                                   const ServingOptions& options, SpanLog* log,
                                   double* setup_s) {
  const bool routed = options.workload == Workload::routed;
  const std::size_t node_count = routed ? 2 : 1;
  auto dep = std::make_unique<Deployment>();
  for (std::size_t i = 0; i < node_count; ++i) {
    auto node = std::make_unique<Node>();
    node->dir = (std::filesystem::path(options.state_dir) /
                 ("node" + std::to_string(i)))
                    .string();
    std::filesystem::remove_all(node->dir);
    dep->nodes.push_back(std::move(node));
  }

  const double t0 = now_s();
  for (std::size_t i = 0; i < node_count; ++i) {
    Node& node = *dep->nodes[i];
    // wilocator_serve's serving defaults; routed nodes run inline
    // engines so two nodes + router fit the same cores.
    core::ServerConfig config;
    config.engine.workers = routed ? 0 : 2;
    config.engine.queue_capacity = 4096;
    config.arrival.min_refresh_wall_s = 0.02;
    config.persist.dir = node.dir;
    node.server = std::make_unique<core::WiLocatorServer>(
        in.city.route_pointers(), in.city.ap_snapshot(), *in.city.rf_model,
        DaySlots::paper_five_slots(), config);
    for (const auto& obs : in.history) node.server->load_history(obs);
    node.server->finalize_history();

    net::ServiceOptions service_options;
    service_options.checkpoint_poll_s = 0.25;
    node.service =
        std::make_unique<net::WiLocatorService>(*node.server, service_options);
    node.service->start();
    node.service->set_ready(true);
    if (log != nullptr) {
      net::HttpServerOptions front_options;
      front_options.registry = &node.server->metrics_registry();
      net::WiLocatorService* service = node.service.get();
      node.front = std::make_unique<net::HttpServer>(
          timed("node" + std::to_string(i), log,
                [service](const net::HttpRequest& r) {
                  return service->handle(r);
                }),
          front_options);
      node.front->start();
    }
  }

  if (routed) {
    for (std::size_t i = 0; i < node_count; ++i) {
      Node& node = *dep->nodes[i];
      std::vector<cluster::NodeInfo> peers;
      for (std::size_t j = 0; j < node_count; ++j)
        if (j != i)
          peers.push_back({"node" + std::to_string(j), "127.0.0.1",
                           dep->nodes[j]->service->port()});
      node.tailer = std::make_unique<cluster::ReplicationTailer>(
          *node.service, std::move(peers), cluster::ReplicationOptions{},
          &node.server->metrics_registry());
      node.tailer->start();
    }
    std::vector<cluster::NodeInfo> members;
    for (std::size_t i = 0; i < node_count; ++i)
      members.push_back({"node" + std::to_string(i), "127.0.0.1",
                         dep->nodes[i]->port()});
    dep->router = std::make_unique<cluster::ClusterRouter>(members);
    dep->router->start();
    if (log != nullptr) {
      net::HttpServerOptions front_options;
      front_options.registry = &dep->router->metrics_registry();
      cluster::ClusterRouter* router = dep->router.get();
      dep->router_front = std::make_unique<net::HttpServer>(
          timed("router", log,
                [router](const net::HttpRequest& r) {
                  return router->handle(r);
                }),
          front_options);
      dep->router_front->start();
    }
  }

  net::HttpClient probe("127.0.0.1", dep->entry_port());
  for (;;) {
    if (probe.get("/readyz").status == 200) break;
    if (now_s() - t0 > 60.0) throw std::runtime_error("readyz timeout");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *setup_s = now_s() - t0;
  return dep;
}

// -- the load ----------------------------------------------------------------

/// A trip riders may ask about (registered, not yet ended).
struct LiveRef {
  std::uint32_t trip;
  std::uint32_t route;
  std::uint32_t stops;
};

/// One arrival answer a client received (for eta_error_s).
struct Answer {
  std::uint32_t trip;
  std::uint32_t stop;
  double now;
  double arrival;
};

/// A sampled scan: when its batch was acked (for eta_visible).
struct VisSample {
  std::uint32_t trip;
  double scan_time;
  double ack_wall;
};

struct ClientStats {
  std::vector<double> post_ms;  ///< from send (closed) or due (open loop)
  std::vector<double> post_rtt_us;
  std::vector<double> get_us;
  std::vector<Answer> answers;
  std::vector<VisSample> samples;
  std::vector<double> lateness_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t not_found = 0;
  std::uint64_t acked_submitted = 0;  ///< whole run, for reconciliation
  std::uint64_t acked_enqueued = 0;
  std::uint64_t window_scans = 0;     ///< acked inside the window
  std::uint64_t window_answers = 0;
  /// Per-second slices of the window: scans acked / answers received.
  std::vector<std::uint64_t> slice_scans;
  std::vector<std::uint64_t> slice_answers;
  std::vector<double> slice_scan_last;    ///< latest ack in each slice
  std::vector<double> slice_answer_last;
  std::string error;

  /// Pre-touches bounded sample buffers (push_capped never grows them),
  /// so recording allocates nothing during the run and rss_mb measures
  /// the server, not the client.
  void reserve_touched(std::size_t latencies, std::size_t records) {
    const auto touch = [](auto& v, std::size_t n) {
      v.resize(n);
      v.clear();
    };
    touch(post_ms, records);
    touch(post_rtt_us, records);
    touch(get_us, latencies);
    touch(answers, records);
    touch(samples, records);
    touch(lateness_s, records);
  }
};

/// Rendezvous of the uplinks at each replay-round boundary, so the
/// server's event clock never runs a day ahead of a lagging connection.
class RoundBarrier {
 public:
  explicit RoundBarrier(std::size_t parties) : parties_(parties) {}
  void arrive_and_wait(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (gen == generation_ && !stop.load())
      cv_.wait_for(lock, std::chrono::milliseconds(20));
  }

 private:
  std::size_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
};

struct Shared {
  explicit Shared(std::size_t uplinks) : barrier(uplinks) {}
  std::atomic<bool> stop{false};
  double window_start = 0.0;
  double window_end = 0.0;
  RoundBarrier barrier;
  std::atomic<std::uint64_t> acked_scans{0};
  std::shared_mutex live_mu;  ///< guards `live`
  std::vector<LiveRef> live;

  bool in_window(double t) const { return t >= window_start && t < window_end; }
  /// The whole-second slice of the window containing t, if any.
  std::optional<std::size_t> slice_of(double t) const {
    if (!in_window(t)) return std::nullopt;
    const auto i = static_cast<std::size_t>(t - window_start);
    return i < slices ? std::optional<std::size_t>(i) : std::nullopt;
  }
  std::size_t slices = 0;
};

bool sampled(std::uint32_t trip_id) {
  return Plan::index_of(trip_id) % 4 == 0;
}

/// Appends while the pre-touched capacity lasts (see ClientStats).
template <typename T>
void push_capped(std::vector<T>& v, T x) {
  if (v.size() < v.capacity()) v.push_back(x);
}

enum class Reply { answer, no_fix, unknown_trip, failed };

/// Classifies an arrival GET reply; keeps the answer for eta_error_s.
Reply record_arrival(const net::ClientResponse& r, std::uint32_t stop,
                     ClientStats& st, bool keep) {
  if (r.status == 200) {
    const auto trip = json_field(r.body, "trip");
    const auto now = json_field(r.body, "now");
    const auto at = json_field(r.body, "arrival_time");
    if (!trip || !now || !at) return Reply::failed;
    if (keep)
      push_capped(st.answers,
                  Answer{static_cast<std::uint32_t>(*trip), stop, *now, *at});
    return Reply::answer;
  }
  if (r.status == 404) {
    if (r.body.find("no position fix yet") != std::string::npos ||
        r.body.find("no active trip with a fix") != std::string::npos)
      return Reply::no_fix;
    if (r.body.find("unknown trip") != std::string::npos)
      return Reply::unknown_trip;
  }
  return Reply::failed;
}

void run_uplink(const Inputs& in, const Plan& plan, std::size_t conn,
                std::uint16_t port, bool paced, Shared& sh, ClientStats& st) {
  net::HttpClient client("127.0.0.1", port);
  const auto& batches = plan.batches(conn);
  Pacer pacer(now_s(), static_cast<double>(kBatchScans) / kPacedScansPerS);
  std::size_t sent = 0;
  std::vector<double> wire;
  std::unordered_map<std::uint32_t, std::size_t> last_in_batch;
  const std::size_t reorder_depth = core::IngestGuardParams{}.reorder_depth;

  const auto trip_request = [&](const std::string& body) {
    ++st.attempted;
    try {
      if (client.post("/v1/trips", body).status == 200) return;
    } catch (const std::exception&) {
    }
    ++st.failed;
  };

  for (std::size_t round = 0; !sh.stop.load(); ++round) {
    for (std::size_t b = 0; b < batches.size() && !sh.stop.load(); ++b) {
      for (const std::uint32_t idx : plan.first_seen(conn, b)) {
        const auto& rec = in.live[idx].record;
        const std::uint32_t route = rec.route.value();
        if (round >= 2) {
          const std::uint32_t old = Plan::trip_id(idx, round - 2);
          {
            std::unique_lock<std::shared_mutex> lock(sh.live_mu);
            std::erase_if(sh.live,
                          [old](const LiveRef& l) { return l.trip == old; });
          }
          trip_request("{\"trip\":" + std::to_string(old) + ",\"end\":true}");
        }
        const std::uint32_t id = Plan::trip_id(idx, round);
        trip_request("{\"trip\":" + std::to_string(id) +
                     ",\"route\":" + std::to_string(route) + "}");
        std::unique_lock<std::shared_mutex> lock(sh.live_mu);
        sh.live.push_back(
            {id, route,
             static_cast<std::uint32_t>(
                 in.city.routes[rec.route.index()].stop_count())});
      }

      wire.clear();
      const std::string body = plan.body(conn, b, round, &wire);
      double due = 0.0;
      if (paced) {
        due = pacer.due(sent);
        sleep_until_s(due);
      }
      const double t0 = now_s();
      if (paced) pacer.sent(sent, t0);
      ++sent;
      ++st.attempted;
      net::ClientResponse r;
      bool ok = false;
      try {
        r = client.post("/v1/scans", body);
        ok = r.status == 200;
      } catch (const std::exception&) {
      }
      const double t1 = now_s();
      const auto submitted = ok ? json_field(r.body, "submitted") : std::nullopt;
      const auto enqueued = ok ? json_field(r.body, "enqueued") : std::nullopt;
      if (!submitted || !enqueued) {
        ++st.failed;
        continue;
      }
      const auto n = static_cast<std::uint64_t>(*submitted);
      st.acked_submitted += n;
      st.acked_enqueued += static_cast<std::uint64_t>(*enqueued);
      sh.acked_scans.fetch_add(n, std::memory_order_relaxed);
      const auto& refs = batches[b];
      if (sh.in_window(t0)) {
        push_capped(st.post_ms, (t1 - (paced ? due : t0)) * 1e3);
        push_capped(st.post_rtt_us, (t1 - t0) * 1e6);
        if (paced) push_capped(st.lateness_s, pacer.lateness().back());
        // Visibility samples: each sampled trip's last scan in the batch.
        // A trip's final scans sit in the guard's reorder buffer until
        // the trip ends (which also drops it from the snapshot), so they
        // can never be shown and are not sampled.
        last_in_batch.clear();
        for (std::size_t k = 0; k < refs.size(); ++k)
          if (refs[k].report + reorder_depth <
              in.live[refs[k].trip].reports.size())
            last_in_batch[refs[k].trip] = k;
        for (const auto& [idx, k] : last_in_batch) {
          const std::uint32_t id = Plan::trip_id(idx, round);
          if (sampled(id)) push_capped(st.samples, VisSample{id, wire[k], t1});
        }
      }
      if (const auto slice = sh.slice_of(t1)) {
        st.window_scans += n;
        st.slice_scans[*slice] += n;
        st.slice_scan_last[*slice] = t1;
      }

      // Ingest-side rider: every 4th batch a `now`-pinned arrival GET
      // (the locked slow path) for the batch's newest scan.
      if (!paced && sent % 4 == 0) {
        const auto& ref = refs.back();
        const auto& rec = in.live[ref.trip].record;
        const auto stop = static_cast<std::uint32_t>(
            in.city.routes[rec.route.index()].stop_count() - 1);
        const std::string target =
            "/v1/arrival?trip=" + std::to_string(Plan::trip_id(ref.trip, round)) +
            "&stop=" + std::to_string(stop) + "&now=" + fmt17(wire.back());
        ++st.attempted;
        const double g0 = now_s();
        Reply reply = Reply::failed;
        const bool keep = sh.in_window(g0);
        try {
          reply = record_arrival(client.get(target), stop, st, keep);
        } catch (const std::exception&) {
        }
        const double g1 = now_s();
        if (reply == Reply::no_fix) ++st.not_found;
        if (reply != Reply::answer && reply != Reply::no_fix) {
          ++st.failed;
        } else if (keep) {
          push_capped(st.get_us, (g1 - g0) * 1e6);
          if (const auto slice = sh.slice_of(g1)) {
            ++st.window_answers;
            ++st.slice_answers[*slice];
            st.slice_answer_last[*slice] = g1;
          }
        }
      }
    }
    if (sh.stop.load()) break;
    sh.barrier.arrive_and_wait(sh.stop);
  }
}

bool is_live(Shared& sh, std::uint32_t trip) {
  std::shared_lock<std::shared_mutex> lock(sh.live_mu);
  return std::any_of(sh.live.begin(), sh.live.end(),
                     [trip](const LiveRef& l) { return l.trip == trip; });
}

void run_rider(std::uint64_t seed, std::uint16_t port, Shared& sh,
               ClientStats& st) {
  net::HttpClient client("127.0.0.1", port);
  std::mt19937_64 rng(seed);
  std::uint64_t n = 0;
  while (!sh.stop.load()) {
    LiveRef ref{};
    {
      std::shared_lock<std::shared_mutex> lock(sh.live_mu);
      if (!sh.live.empty()) ref = sh.live[rng() % sh.live.size()];
    }
    if (ref.stops == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // Stops in the back half of the route: mostly still ahead of the bus.
    const std::uint32_t half = ref.stops / 2;
    const auto stop = static_cast<std::uint32_t>(
        half + rng() % std::max<std::uint32_t>(1, ref.stops - half));
    // Alternate the trip-level and the rider-facing route-level form.
    const std::string target =
        (n++ % 2 == 0 ? "/v1/arrival?trip=" + std::to_string(ref.trip)
                      : "/v1/arrival?route=" + std::to_string(ref.route)) +
        "&stop=" + std::to_string(stop);
    ++st.attempted;
    const double g0 = now_s();
    Reply reply = Reply::failed;
    // Every 8th answer is kept for eta_error_s (bounded client memory).
    const bool keep = sh.in_window(g0);
    try {
      reply = record_arrival(client.get(target), stop, st, keep && n % 8 == 0);
    } catch (const std::exception&) {
    }
    const double g1 = now_s();
    // The uplink may have ended the trip between the pick and the GET.
    if (reply == Reply::unknown_trip && !is_live(sh, ref.trip))
      reply = Reply::no_fix;
    if (reply == Reply::no_fix) ++st.not_found;
    if (reply != Reply::answer && reply != Reply::no_fix) {
      ++st.failed;
    } else if (keep) {
      push_capped(st.get_us, (g1 - g0) * 1e6);
      if (const auto slice = sh.slice_of(g1)) {
        ++st.window_answers;
        ++st.slice_answers[*slice];
        st.slice_answer_last[*slice] = g1;
      }
    }
  }
}

/// Polls every node's lock-free snapshot and records each offset change
/// of the sampled trips (no lock is taken, so it cannot slow the server).
class Watcher {
 public:
  Watcher(const Deployment& dep, const Shared& sh, std::uint64_t rss_quota)
      : dep_(dep), sh_(sh), rss_quota_(rss_quota) {}

  void run() {
    std::vector<std::shared_ptr<const core::ArrivalSnapshot>> last(
        dep_.nodes.size());
    while (!stop_.load()) {
      const double wall = now_s();
      for (std::size_t i = 0; i < dep_.nodes.size(); ++i) {
        auto snap = dep_.nodes[i]->server->arrival_snapshot();
        if (snap == nullptr || snap == last[i]) continue;
        last[i] = snap;
        for (const auto& [trip, ta] : snap->trips) {
          if (!sampled(trip.value())) continue;
          auto& seen = sightings_[trip.value()];
          if (seen.empty() || seen.back().offset != ta->offset)
            seen.push_back({wall, ta->offset});
        }
      }
      if (rss_at_ == 0.0 &&
          sh_.acked_scans.load(std::memory_order_relaxed) >= rss_quota_)
        rss_at_ = rss_mb();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void stop() { stop_.store(true); }

  std::unordered_map<std::uint32_t, std::vector<Sighting>>& sightings() {
    return sightings_;
  }
  double rss_at() const { return rss_at_; }

 private:
  const Deployment& dep_;
  const Shared& sh_;
  std::uint64_t rss_quota_;
  std::atomic<bool> stop_{false};
  std::unordered_map<std::uint32_t, std::vector<Sighting>> sightings_;
  double rss_at_ = 0.0;
};

/// The trip's drained tracker on whichever node owns it.
const core::BusTracker* find_tracker(const Deployment& dep,
                                     std::uint32_t trip) {
  for (const auto& node : dep.nodes) {
    try {
      return &node->server->tracker(roadnet::TripId(trip));
    } catch (const Error&) {
    }
  }
  return nullptr;
}

/// Post-run checks on a stopped (drained) deployment.
void check_deployment(const Deployment& dep, const ClientStats& total,
                      std::vector<std::string>& violations) {
  std::uint64_t posted = 0;
  for (std::size_t i = 0; i < dep.nodes.size(); ++i) {
    const core::WiLocatorServer& server = *dep.nodes[i]->server;
    if (!server.ingest_stats().accounted())
      violations.push_back("node" + std::to_string(i) +
                           ": ingest_stats not accounted after drain");
    const std::uint64_t node_posted =
        server.metrics_snapshot().counter("service.scans_posted");
    posted += node_posted;
    if (dep.router != nullptr &&
        dep.router->acked_scans_by_node()[i] != node_posted)
      violations.push_back("node" + std::to_string(i) +
                           ": router acks != service.scans_posted");
  }
  if (posted != total.acked_submitted)
    violations.push_back("acked scans " +
                         std::to_string(total.acked_submitted) +
                         " != service.scans_posted " + std::to_string(posted));
  if (total.acked_enqueued != total.acked_submitted)
    violations.push_back("acked batches reported backpressure drops");
}

/// Snapshot bodies must equal the locked slow path pinned at the
/// snapshot's `now` (server quiescent: drained, refresh flushed), for
/// every stop of up to 16 trips per node.
void check_snapshot_bodies(Deployment& dep,
                           std::vector<std::string>& violations) {
  std::size_t compared = 0;
  for (std::size_t i = 0; i < dep.nodes.size(); ++i) {
    Node& node = *dep.nodes[i];
    node.server->flush_arrivals();
    const auto snap = node.server->arrival_snapshot();
    if (snap == nullptr) continue;
    std::vector<std::uint32_t> trips;
    for (const auto& [trip, ta] : snap->trips) trips.push_back(trip.value());
    std::sort(trips.begin(), trips.end());
    const std::size_t step = std::max<std::size_t>(1, trips.size() / 16);
    for (std::size_t k = 0; k < trips.size(); k += step) {
      const core::TripArrivals* ta = snap->find(roadnet::TripId(trips[k]));
      for (std::size_t stop = 0; stop < ta->body.size(); ++stop) {
        net::HttpRequest request;
        request.method = "GET";
        request.target = "/v1/arrival?trip=" + std::to_string(trips[k]) +
                         "&stop=" + std::to_string(stop) +
                         "&now=" + fmt17(ta->now);
        net::split_target(request.target, &request.path, &request.query);
        const net::HttpResponse slow = node.service->handle(request);
        ++compared;
        if (slow.status != 200 || slow.body != ta->body[stop]) {
          violations.push_back("node" + std::to_string(i) + " trip " +
                               std::to_string(trips[k]) + " stop " +
                               std::to_string(stop) +
                               ": snapshot body != slow path");
          return;
        }
      }
    }
  }
  if (compared == 0) violations.push_back("no snapshot bodies to compare");
}

void merge(ClientStats& into, ClientStats&& from) {
  const auto append = [](auto& a, auto& b) {
    a.insert(a.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
  };
  append(into.post_ms, from.post_ms);
  append(into.post_rtt_us, from.post_rtt_us);
  append(into.get_us, from.get_us);
  append(into.answers, from.answers);
  append(into.samples, from.samples);
  append(into.lateness_s, from.lateness_s);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.not_found += from.not_found;
  into.acked_submitted += from.acked_submitted;
  into.acked_enqueued += from.acked_enqueued;
  into.window_scans += from.window_scans;
  into.window_answers += from.window_answers;
  into.slice_scans.resize(from.slice_scans.size());
  into.slice_answers.resize(from.slice_answers.size());
  into.slice_scan_last.resize(from.slice_scans.size());
  into.slice_answer_last.resize(from.slice_answers.size());
  for (std::size_t i = 0; i < from.slice_scans.size(); ++i) {
    into.slice_scans[i] += from.slice_scans[i];
    into.slice_answers[i] += from.slice_answers[i];
    into.slice_scan_last[i] =
        std::max(into.slice_scan_last[i], from.slice_scan_last[i]);
    into.slice_answer_last[i] =
        std::max(into.slice_answer_last[i], from.slice_answer_last[i]);
  }
  if (!from.error.empty()) into.error += from.error + "; ";
}

Summary summary_of(std::vector<double> v) { return summarize(v); }

/// Handler spans of one kind ("node* POST /v1/scans" etc.), in µs.
std::vector<double> span_us(const std::vector<Span>& spans,
                            const std::string& prefix,
                            const std::string& suffix) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name.starts_with(prefix) && s.name.ends_with(suffix))
      out.push_back((s.end - s.start) * 1e6);
  return out;
}

}  // namespace

const char* name_of(Workload w) {
  switch (w) {
    case Workload::ingest: return "ingest";
    case Workload::read: return "read";
    case Workload::routed: return "routed";
  }
  return "?";
}

// -- Plan ----------------------------------------------------------------

Plan::Plan(const Inputs& in, std::size_t uplinks) : in_(&in) {
  struct Event {
    double t;
    std::uint32_t trip;
    std::uint32_t report;
  };
  std::vector<Event> events;
  readings_json_.resize(in.live.size());
  for (std::uint32_t i = 0; i < in.live.size(); ++i) {
    if (in.live[i].record.id.value() != kFirstTripId + i)
      throw std::runtime_error("live trips are not numbered contiguously");
    const auto& reports = in.live[i].reports;
    for (std::uint32_t k = 0; k < reports.size(); ++k) {
      events.push_back({reports[k].scan.time, i, k});
      std::string json = ",\"readings\":[";
      bool first = true;
      for (const auto& rd : reports[k].scan.readings) {
        if (!first) json += ',';
        first = false;
        json += '[' + std::to_string(rd.ap.value()) + ',' +
                fmt12(rd.rssi_dbm) + ']';
      }
      json += "]}";
      readings_json_[i].push_back(std::move(json));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  round_scans_ = events.size();

  batches_.assign(uplinks, {});
  first_seen_.assign(uplinks, {});
  std::vector<std::vector<ScanRef>> pending(uplinks);
  std::vector<bool> seen(in.live.size(), false);
  std::vector<std::vector<std::uint32_t>> pending_first(uplinks);
  const auto flush = [&](std::size_t conn) {
    batches_[conn].push_back(std::move(pending[conn]));
    first_seen_[conn].push_back(std::move(pending_first[conn]));
    pending[conn].clear();
    pending_first[conn].clear();
  };
  for (const Event& e : events) {
    const std::size_t conn = e.trip % uplinks;
    if (!seen[e.trip]) {
      seen[e.trip] = true;
      pending_first[conn].push_back(e.trip);
    }
    pending[conn].push_back({e.trip, e.report});
    if (pending[conn].size() == kBatchScans) flush(conn);
  }
  for (std::size_t conn = 0; conn < uplinks; ++conn)
    if (!pending[conn].empty()) flush(conn);

  // The fast renderer must send exactly what the library's client codec
  // would (round 1 also exercises the id and time shift).
  const auto& first = batches_.front().front();
  std::vector<core::ScanSubmission> subs;
  for (const ScanRef& ref : first) {
    const auto& report = in.live[ref.trip].reports[ref.report];
    subs.push_back({roadnet::TripId(trip_id(ref.trip, 1)), report.scan});
    subs.back().scan.time = std::strtod(
        fmt12(report.scan.time + kRoundShiftS).c_str(), nullptr);
  }
  if (body(0, 0, 1) != net::encode_scan_batch(subs))
    throw std::runtime_error("plan bodies differ from encode_scan_batch");
}

std::string Plan::body(std::size_t conn, std::size_t b, std::size_t round,
                       std::vector<double>* wire_times) const {
  const auto& refs = batches_[conn][b];
  std::string out;
  out.reserve(refs.size() * 256 + 16);
  out += "{\"scans\":[";
  bool first = true;
  for (const ScanRef& ref : refs) {
    if (!first) out += ',';
    first = false;
    out += "{\"trip\":";
    out += std::to_string(trip_id(ref.trip, round));
    out += ",\"t\":";
    const std::string t = fmt12(in_->live[ref.trip].reports[ref.report].scan.time +
                                static_cast<double>(round) * kRoundShiftS);
    out += t;
    if (wire_times != nullptr) wire_times->push_back(std::strtod(t.c_str(), nullptr));
    out += readings_json_[ref.trip][ref.report];
  }
  out += "]}";
  return out;
}

std::vector<std::vector<core::ScanSubmission>> Plan::decoded_batches(
    std::size_t round) const {
  std::vector<std::vector<core::ScanSubmission>> out;
  std::size_t most = 0;
  for (const auto& conn : batches_) most = std::max(most, conn.size());
  for (std::size_t b = 0; b < most; ++b)
    for (std::size_t conn = 0; conn < batches_.size(); ++conn) {
      if (b >= batches_[conn].size()) continue;
      std::string error;
      auto batch = net::decode_scan_batch(body(conn, b, round), &error);
      if (!batch.has_value())
        throw std::runtime_error("plan body does not decode: " + error);
      out.push_back(std::move(*batch));
    }
  return out;
}

// -- the run -------------------------------------------------------------

ServingReport run_serving(const Inputs& in, const Plan& plan,
                          const ServingOptions& options) {
  ServingReport rep;
  SpanLog log;
  SpanLog* span_log = options.traced ? &log : nullptr;
  const bool paced = options.workload == Workload::read;
  const std::size_t uplinks = plan.uplinks();
  const std::size_t riders = paced ? 2 : 0;
  std::vector<ClientStats> stats(uplinks + riders);
  for (std::size_t c = 0; c < stats.size(); ++c)
    stats[c].reserve_touched(c < uplinks ? 200'000 : 1'000'000, 200'000);

  const double rss0 = rss_mb();
  std::unique_ptr<Deployment> dep = deploy(in, options, span_log, &rep.setup_s);

  Shared sh(uplinks);
  const double start = now_s();
  sh.slices = static_cast<std::size_t>(options.seconds);
  sh.window_start = start + options.warmup_s;
  sh.window_end = sh.window_start + static_cast<double>(sh.slices);
  for (ClientStats& st : stats) {
    st.slice_scans.assign(sh.slices, 0);
    st.slice_answers.assign(sh.slices, 0);
    st.slice_scan_last.assign(sh.slices, 0.0);
    st.slice_answer_last.assign(sh.slices, 0.0);
  }

  // RSS is read at a fixed amount of work, two rounds of the live
  // window, so a faster server is not charged for replaying more.
  Watcher watcher(*dep, sh, 2 * plan.round_scans());
  std::thread watch_thread([&] { watcher.run(); });
  std::vector<double> probes;
  std::thread probe_thread([&] {
    while (!sh.stop.load()) {
      const double p = probe_cpu_s();
      if (sh.in_window(now_s())) probes.push_back(p * 1e6);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::vector<std::thread> clients;
  const std::uint16_t port = dep->entry_port();
  for (std::size_t c = 0; c < uplinks; ++c)
    clients.emplace_back([&, c] {
      try {
        run_uplink(in, plan, c, port, paced, sh, stats[c]);
      } catch (const std::exception& e) {
        stats[c].error = e.what();
      }
    });
  for (std::size_t r = 0; r < riders; ++r)
    clients.emplace_back([&, r] {
      try {
        run_rider(in.seed * 7919 + r, port, sh, stats[uplinks + r]);
      } catch (const std::exception& e) {
        stats[uplinks + r].error = e.what();
      }
    });
  const auto cpu_s = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  sleep_until_s(sh.window_start);
  const double cpu0 = cpu_s();
  sleep_until_s(sh.window_end);
  rep.cpu_cores = (cpu_s() - cpu0) / (now_s() - sh.window_start);
  sh.stop.store(true);
  for (auto& t : clients) t.join();
  probe_thread.join();
  rep.probe_us = summarize(probes).p50;
  // Give the last acked scans their full visibility bound.
  std::this_thread::sleep_for(std::chrono::duration<double>(kVisibleBoundS));
  watcher.stop();
  watch_thread.join();
  rep.rss_mb = (watcher.rss_at() > 0.0 ? watcher.rss_at() : rss_mb()) - rss0;

  ClientStats total;
  for (auto& s : stats) merge(total, std::move(s));
  if (!total.error.empty())
    rep.violations.push_back("client thread: " + total.error);

  dep->stop();  // drains every engine; trackers are stable from here
  check_deployment(*dep, total, rep.violations);
  check_snapshot_bodies(*dep, rep.violations);

  // Rates: replies in the window over the time they span (window start
  // to the last reply), so the tail of a request cut by the window end
  // is not charged. The one-second slices are kept for the printout. A
  // slice's rate divides its count by the time its replies actually span
  // (previous slice's last reply to its own last reply).
  rep.window_s = static_cast<double>(sh.slices);
  const auto slice_rate = [&](const std::vector<std::uint64_t>& counts,
                              const std::vector<double>& last,
                              std::vector<double>* out = nullptr) {
    std::vector<double> rates;
    double prev = sh.window_start;
    std::uint64_t total_count = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (last[i] > prev)
        rates.push_back(static_cast<double>(counts[i]) / (last[i] - prev));
      prev = last[i];
      total_count += counts[i];
    }
    if (out != nullptr) *out = rates;
    return prev > sh.window_start
               ? static_cast<double>(total_count) / (prev - sh.window_start)
               : 0.0;
  };
  rep.scans_per_s = slice_rate(total.slice_scans, total.slice_scan_last,
                               &rep.slice_scans_per_s);
  rep.read_qps = slice_rate(total.slice_answers, total.slice_answer_last);
  rep.post_ms = summary_of(total.post_ms);
  rep.read_us = summary_of(total.get_us);
  rep.post_rtt_us = summary_of(total.post_rtt_us);
  std::vector<double> late_ms;
  for (const double s : total.lateness_s) late_ms.push_back(s * 1e3);
  rep.pace_lateness_ms = summary_of(late_ms);
  rep.not_found = total.not_found;

  // Positioning error over round 0 (fully replayed by every uplink when
  // any round completed; deterministic per seed then).
  std::vector<double> fix_err;
  for (std::uint32_t i = 0; i < in.live.size(); ++i) {
    const core::BusTracker* tracker = find_tracker(*dep, Plan::trip_id(i, 0));
    if (tracker == nullptr) continue;
    for (const core::Fix& fix : tracker->fixes())
      fix_err.push_back(
          std::abs(fix.route_offset - in.live[i].record.offset_at(fix.time)));
  }
  rep.fix_samples = fix_err.size();
  rep.fix_error_m_p50 = summary_of(fix_err).p50;

  // Served-ETA error over the answers whose stop was still ahead.
  std::vector<double> eta_err;
  for (const Answer& a : total.answers) {
    const auto& rec = in.live[Plan::index_of(a.trip)].record;
    if (a.stop >= rec.stops.size()) continue;
    const double truth = rec.arrival_at_stop(a.stop) +
                         static_cast<double>(Plan::round_of(a.trip)) *
                             kRoundShiftS;
    if (truth < a.now) continue;
    eta_err.push_back(std::abs(a.arrival - truth));
  }
  rep.eta_samples = eta_err.size();
  rep.eta_error_s_p50 = summary_of(eta_err).p50;

  // Snapshot visibility of the sampled scans.
  struct TripMatch {
    std::vector<FixPoint> fixes;
    std::vector<long> fix_run;
    std::vector<long> sighting_run;
  };
  std::unordered_map<std::uint32_t, TripMatch> matches;
  static const std::vector<Sighting> kNone;
  std::vector<double> visible_ms;
  for (const VisSample& s : total.samples) {
    auto it = matches.find(s.trip);
    const auto sit = watcher.sightings().find(s.trip);
    const std::vector<Sighting>& seen =
        sit != watcher.sightings().end() ? sit->second : kNone;
    if (it == matches.end()) {
      TripMatch m;
      if (const core::BusTracker* tracker = find_tracker(*dep, s.trip))
        for (const core::Fix& fix : tracker->fixes())
          m.fixes.push_back({fix.time, fix.route_offset});
      m.sighting_run = match_sightings(m.fixes, seen, &m.fix_run);
      it = matches.emplace(s.trip, std::move(m)).first;
    }
    bool no_fix = false;
    const auto wall = visible_wall(it->second.fixes, seen,
                                   it->second.sighting_run,
                                   it->second.fix_run, s.scan_time, &no_fix);
    if (no_fix) {
      ++rep.unjudged;
      continue;
    }
    const double delay = wall ? std::max(0.0, *wall - s.ack_wall) : 1e300;
    if (delay > kVisibleBoundS) {
      ++rep.invisible;
      continue;
    }
    visible_ms.push_back(delay * 1e3);
  }
  rep.visible_ms = summary_of(visible_ms);

  rep.attempted = total.attempted + visible_ms.size() + rep.invisible;
  rep.failed = total.failed + rep.invisible;

  // Counters summed over the nodes (+ the router's own registry).
  for (const auto& node : dep->nodes)
    for (const auto& [name, v] : node->server->metrics_snapshot().counters)
      rep.counters[name] += v;
  if (dep->router != nullptr)
    for (const auto& [name, v] : dep->router->metrics_registry().snapshot().counters)
      rep.counters[name] += v;

  if (options.traced) {
    rep.spans = log.take();
    rep.post_handler_us = summary_of(span_us(rep.spans, "node", "POST /v1/scans"));
    rep.get_handler_us = summary_of(span_us(rep.spans, "node", "GET /v1/arrival"));
    rep.router_handler_us =
        summary_of(span_us(rep.spans, "router", "POST /v1/scans"));
    // Router self time: its span minus the node spans it caused (the
    // router's single loop forwards synchronously, so a client-path node
    // span inside a router span is its child).
    std::vector<std::size_t> node_spans;
    for (std::size_t i = 0; i < rep.spans.size(); ++i)
      if (rep.spans[i].name.starts_with("node") &&
          rep.spans[i].name.find(" /v1/replication") == std::string::npos &&
          rep.spans[i].name.find(" /healthz") == std::string::npos)
        node_spans.push_back(i);
    std::sort(node_spans.begin(), node_spans.end(),
              [&](std::size_t a, std::size_t b) {
                return rep.spans[a].start < rep.spans[b].start;
              });
    std::vector<double> self_us;
    for (Span& parent : rep.spans) {
      if (!parent.name.starts_with("router") ||
          !parent.name.ends_with("POST /v1/scans"))
        continue;
      std::vector<std::pair<double, double>> children;
      auto it = std::lower_bound(node_spans.begin(), node_spans.end(),
                                 parent.start, [&](std::size_t i, double t) {
                                   return rep.spans[i].start < t;
                                 });
      for (; it != node_spans.end() && rep.spans[*it].start < parent.end; ++it) {
        Span& child = rep.spans[*it];
        child.parent = parent.id;
        child.request = parent.id;
        children.emplace_back(child.start, child.end);
      }
      parent.request = parent.id;
      self_us.push_back(self_time(parent.start, parent.end, children) * 1e6);
    }
    rep.router_self_us = summary_of(self_us);
  }
  return rep;
}

}  // namespace servebench
