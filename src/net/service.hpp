// WiLocatorService: the HTTP serving front-end over a WiLocatorServer.
//
// The paper's deployment (Fig. 4) is an online service: phones POST
// WiFi scans, riders GET arrival predictions. This layer owns exactly
// that edge plus the operational cadence a real deployment needs:
//
//   POST /v1/scans        batched scan ingest -> IngestEngine shards
//   POST /v1/trips        trip registration / closing
//   GET  /v1/arrival      Eq. 9 chained arrival prediction
//   GET  /v1/position     current route offset of a trip
//   GET  /v1/traffic-map  city-wide congestion classification
//   GET  /metrics         metrics_snapshot() (JSON, or ?format=prometheus)
//   GET  /healthz         liveness (process is serving)
//   GET  /readyz          readiness (recovery replayed + warmup done)
//
// Rider read path (DESIGN.md §12-13), one source per step:
//   1. snapshot: GET /v1/arrival and /v1/traffic-map without an
//      explicit `now` are served straight from the server's
//      materialized ArrivalSnapshot — arrival values behind one
//      shared-pointer copy, rendered to JSON per request (the traffic
//      map's body is encoded once per store epoch); the service mutex
//      is never taken (X-Cache: hit, X-Epoch). A present `now` must be
//      a finite number >= 0 (else 400 bad "now").
//   2. slow path: requests that pin `now`, or that the snapshot cannot
//      answer, compute under the service mutex (http.read_slow_path
//      counts the unpinned ones). Overload never reaches it: the HTTP
//      front end's admission control sheds first.
//   3. 503 + Retry-After: while an operator forces degraded mode, a
//      read the snapshot cannot answer is shed (reason
//      "forced_degraded") instead of touching learned state. /readyz
//      reports the forced flag as "degraded".
//
// Threading (see DESIGN.md §11): the epoll loop thread is the
// WiLocatorServer control thread; every handler that touches learned
// state runs under `mu_`. A background checkpoint thread shares that
// mutex only for the cheap prepare phase (serialize + journal seal) and
// performs the snapshot write + fsync outside it, so checkpoint I/O
// never stalls ingest or queries. Graceful stop drains the engine,
// takes a final synchronous checkpoint and flushes the reporter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/server.hpp"
#include "net/http_server.hpp"

namespace wiloc::net {

/// One peer's replication progress as seen by the local tailer
/// (cluster::ReplicationTailer publishes these; /readyz reports them so
/// orchestrators can gate traffic on convergence).
struct PeerLag {
  std::string peer;                    ///< peer node id
  std::uint64_t records_behind = 0;    ///< peer last_seq - local watermark
  double seconds_behind = 0.0;         ///< wall time since last caught up
  bool reachable = true;               ///< last tail poll succeeded
};

/// Supplied by whoever runs the replication tailer; called per /readyz.
using ReplicationLagProvider = std::function<std::vector<PeerLag>()>;

/// Page-size cap for GET /v1/replication/segments responses; a
/// client-requested max_bytes is clamped to this.
inline constexpr std::size_t kReplicationPageBytes = std::size_t{1} << 20;

struct ServiceOptions {
  HttpServerOptions http;
  /// Wall-clock cadence at which the checkpoint thread polls
  /// checkpoint_due() (the actual snapshot interval stays sim-time
  /// driven by PersistenceConfig). The thread runs whenever the server
  /// has persistence; inline control-thread checkpoints are suppressed
  /// while the service runs.
  double checkpoint_poll_s = 0.25;
  /// Flushed (final) during stop(), after the engine drain — e.g. the
  /// NDJSON obs::Reporter of the serve binary. May be null.
  obs::Reporter* reporter = nullptr;
};

class WiLocatorService {
 public:
  /// The server must outlive the service.
  WiLocatorService(core::WiLocatorServer& server, ServiceOptions options = {});
  ~WiLocatorService();

  WiLocatorService(const WiLocatorService&) = delete;
  WiLocatorService& operator=(const WiLocatorService&) = delete;

  /// Binds the HTTP server and starts the checkpoint thread.
  void start();

  /// Graceful shutdown: stop accepting, join the checkpointer, drain
  /// the engine, final checkpoint (when persistence is healthy), flush
  /// the reporter. Idempotent; never throws.
  void stop() noexcept;

  /// Marks warmup (history load / training) complete; /readyz flips to
  /// 200. Recovery replay already happened in the server constructor,
  /// so readiness == "recovered state + warmup visible".
  void set_ready(bool ready = true) {
    ready_.store(ready, std::memory_order_release);
    if (ready_gauge_ != nullptr) ready_gauge_->set(ready ? 1.0 : 0.0);
  }
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Forces (or lifts) degraded-read mode: reads the snapshot cannot
  /// answer are shed with 503 instead of touching learned state.
  void set_degraded(bool degraded = true) {
    forced_degraded_.store(degraded, std::memory_order_release);
    if (degraded_gauge_ != nullptr) degraded_gauge_->set(degraded ? 1.0 : 0.0);
  }
  bool degraded() const {
    return forced_degraded_.load(std::memory_order_acquire);
  }

  std::uint16_t port() const {
    return http_ != nullptr ? http_->port() : 0;
  }
  bool running() const { return http_ != nullptr && http_->running(); }

  /// Checkpoints the server now, under the service mutex, so it never
  /// races a handler or a replication tail reading the same state.
  /// stop() takes its final checkpoint through here. Requires
  /// persistence to be enabled.
  void checkpoint();

  /// Routes one request (also the in-process test entry point — no
  /// socket needed).
  HttpResponse handle(const HttpRequest& request);

  // -- replication (cluster mode) ----------------------------------------

  /// What apply_replication_frames did with one tailed page.
  struct ReplicationApply {
    std::uint64_t records = 0;   ///< decodable records in the page
    std::uint64_t applied = 0;   ///< genuinely new here
    std::uint64_t last_seq = 0;  ///< highest origin seq seen in the page
  };

  /// Applies a page of journal frames tailed from a peer (the body of
  /// its GET /v1/replication/segments response) under the service
  /// mutex, through the server's idempotent apply path. Undecodable
  /// frames are skipped exactly like recovery skips them.
  ReplicationApply apply_replication_frames(
      std::span<const std::byte> frames);

  /// Wires the /readyz per-peer replication lag report (called by the
  /// replication tailer once it exists; the provider must stay valid
  /// until stop()).
  void set_replication_lag_provider(ReplicationLagProvider provider) {
    std::lock_guard<std::mutex> lock(lag_mu_);
    lag_provider_ = std::move(provider);
  }

  /// Abandons the HTTP front-end without drain, final checkpoint or
  /// reporter flush — the node stops answering as if the process died.
  /// For in-process chaos tests (a real kill -9 is the e2e variant);
  /// stop() remains the graceful path and stays idempotent after this.
  void abort_http() noexcept {
    if (http_ != nullptr) http_->stop();
  }

 private:
  HttpResponse handle_scans(const HttpRequest& request);
  HttpResponse handle_trips(const HttpRequest& request);
  HttpResponse handle_arrival(const HttpRequest& request);
  HttpResponse handle_position(const HttpRequest& request);
  HttpResponse handle_traffic_map(const HttpRequest& request);
  HttpResponse handle_metrics(const HttpRequest& request);
  HttpResponse handle_replication(const HttpRequest& request);
  HttpResponse handle_readyz() const;
  void checkpoint_loop();
  double default_now() const;

  /// Fast path without the service lock: serve from the materialized
  /// snapshot (ArrivalTable::snapshot copies the pointer). Only
  /// requests without an explicit `now` are eligible (a pinned now
  /// asks for computation at that instant, which only the slow path
  /// honors). nullopt = snapshot miss, take the locked slow path.
  std::optional<HttpResponse> arrival_from_snapshot(
      std::optional<roadnet::TripId> trip,
      std::optional<roadnet::RouteId> route, std::size_t stop,
      bool pinned_now);
  std::optional<HttpResponse> traffic_from_snapshot(bool pinned_now);
  /// Stamps the snapshot response headers + hit counter.
  HttpResponse snapshot_reply(std::string body, std::uint64_t epoch);


  core::WiLocatorServer& server_;
  ServiceOptions options_;
  std::unique_ptr<HttpServer> http_;

  /// Serializes every WiLocatorServer control-thread operation: HTTP
  /// handlers (epoll thread) and the checkpoint prepare phase.
  std::mutex mu_;

  /// Guards lag_provider_ (set once by the tailer, read per /readyz).
  mutable std::mutex lag_mu_;
  ReplicationLagProvider lag_provider_;

  std::atomic<bool> ready_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> forced_degraded_{false};
  bool started_ = false;

  std::thread checkpointer_;
  std::mutex cv_mu_;
  std::condition_variable cv_;

  obs::Counter* scans_posted_ = nullptr;     ///< service.scans_posted
  obs::Counter* arrivals_served_ = nullptr;  ///< service.arrivals_served
  obs::Counter* checkpoint_commits_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;       ///< arrival_cache.hits
  obs::Counter* cache_misses_ = nullptr;     ///< arrival_cache.misses
  obs::Counter* read_slow_path_ = nullptr;   ///< http.read_slow_path
  obs::Counter* contract_violations_ = nullptr;  ///< http.contract_violations
  obs::Counter* repl_pages_served_ = nullptr;  ///< service.repl_pages_served
  obs::Counter* repl_records_served_ = nullptr;
  obs::Gauge* ready_gauge_ = nullptr;     ///< service.ready
  obs::Gauge* degraded_gauge_ = nullptr;  ///< service.degraded
};

}  // namespace wiloc::net
