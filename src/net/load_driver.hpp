// HTTP load driver: replays a scan-submission stream against a running
// WiLocatorService over real sockets, the way a fleet's phones would.
//
// Trips are sharded across client connections (one phone = one uplink),
// which preserves the per-trip scan order the ingest guard enforces
// while still exercising concurrent connections. Each connection POSTs
// fixed-size /v1/scans batches (bodies are pre-encoded so the clock
// measures the server, not the JSON encoder) and periodically
// interleaves GET /v1/arrival probes — the mixed read/write workload of
// a live deployment. Used by bench_http and the e2e tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ingest_engine.hpp"
#include "net/http_client.hpp"
#include "net/scan_codec.hpp"

namespace wiloc::net {

/// One rider-facing arrival query to interleave with the ingest load.
struct ArrivalProbe {
  roadnet::TripId trip;
  std::size_t stop = 0;
  double now = 0.0;
  /// When false the probe omits the `now` query parameter — the form a
  /// real rider poll takes, eligible for the server's materialized
  /// zero-lock read path (X-Cache: hit).
  bool with_now = true;
};

struct LoadDriverOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::size_t batch_size = 256;   ///< scans per POST /v1/scans
  std::size_t arrival_every = 8;  ///< probe cadence, in batches (0 = off)
  /// Mixed GET/POST workload knob: arrival GETs issued after every
  /// scan POST (rider-heavy read mix; 0 = only the arrival_every
  /// cadence). A reads-per-scan ratio R becomes R * batch_size.
  std::size_t reads_per_post = 0;
  /// Per-connection client tuning (timeouts, retry ladder). Retries only
  /// apply to GET probes unless `idempotent_posts` is also set.
  HttpClientOptions client;
  /// Marks POST /v1/scans as retry-safe. Only set when the server side
  /// dedups resubmitted batches (per-trip ingest-order guard).
  bool idempotent_posts = false;
};

struct LoadReport {
  std::size_t scans_posted = 0;
  std::size_t batches = 0;
  std::size_t arrival_queries = 0;
  std::size_t arrival_misses = 0;  ///< 404 (no fix yet) — not an error
  std::size_t errors = 0;          ///< transport failures or non-2xx/404
  // Fault-class breakdown of `errors` (reconciled against the server's
  // http.shed / http.rate_limited / http.deadline_exceeded /
  // http.timeouts_408 metrics by the chaos tests).
  std::size_t shed_503 = 0;
  std::size_t rate_limited_429 = 0;
  std::size_t deadline_504 = 0;
  std::size_t timeouts_408 = 0;
  std::size_t transport_errors = 0;  ///< thrown wiloc::Error (torn/timed out)
  std::size_t arrival_cache_hits = 0;  ///< 200s from the snapshot path
  std::size_t retries = 0;           ///< client retry ladder activations
  std::size_t good_responses = 0;    ///< 200s + 404 probe misses
  double wall_s = 0.0;
  double scans_per_sec = 0.0;
  double goodput_rps = 0.0;  ///< good_responses / wall_s
  double cache_hit_rate = 0.0;  ///< arrival_cache_hits / arrival_queries
  std::vector<double> post_latency_us;     ///< sorted ascending
  std::vector<double> arrival_latency_us;  ///< sorted ascending
  /// Per-class arrival latencies: answers served from the materialized
  /// snapshot (X-Cache: hit) vs. the locked slow path.
  std::vector<double> arrival_hit_latency_us;
  std::vector<double> arrival_miss_latency_us;
  std::vector<double> shed_latency_us;     ///< 503-answered, sorted ascending

  double post_quantile_us(double q) const;
  double arrival_quantile_us(double q) const;
  double arrival_hit_quantile_us(double q) const;
  double arrival_miss_quantile_us(double q) const;
  double shed_quantile_us(double q) const;
};

class HttpLoadDriver {
 public:
  explicit HttpLoadDriver(LoadDriverOptions options);

  /// Replays the stream (already in global time order) and blocks until
  /// every batch is answered. `probes` are cycled through by each
  /// connection every `arrival_every` batches.
  LoadReport run(std::span<const core::ScanSubmission> stream,
                 std::vector<ArrivalProbe> probes = {});

 private:
  LoadDriverOptions options_;
};

}  // namespace wiloc::net
