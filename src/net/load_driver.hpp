// HTTP load driver: replays a scan-submission stream against a running
// WiLocatorService over real sockets, the way a fleet's phones would.
//
// Trips are sharded across client connections (one phone = one uplink),
// which preserves the per-trip scan order the ingest guard enforces
// while still exercising concurrent connections. Each connection POSTs
// fixed-size /v1/scans batches and periodically interleaves GET
// /v1/arrival probes, and the report classifies every answer by fault
// class. Used by the network chaos tests to drive the service through
// overload and a fault-injecting proxy.
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
};

struct LoadDriverOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::size_t batch_size = 256;   ///< scans per POST /v1/scans
  std::size_t arrival_every = 8;  ///< probe cadence, in batches (0 = off)
  /// Per-connection client tuning (timeouts, retry ladder). Retries only
  /// apply to GET probes; each scan batch is POSTed once.
  HttpClientOptions client;
};

struct LoadReport {
  std::size_t batches = 0;
  std::size_t arrival_queries = 0;
  std::size_t errors = 0;  ///< transport failures or non-2xx/404
  // Fault-class breakdown of `errors` (reconciled against the server's
  // http.shed / http.rate_limited / http.deadline_exceeded /
  // http.timeouts_408 metrics by the chaos tests).
  std::size_t shed_503 = 0;
  std::size_t rate_limited_429 = 0;
  std::size_t deadline_504 = 0;
  std::size_t timeouts_408 = 0;
  std::size_t transport_errors = 0;  ///< thrown wiloc::Error (torn/timed out)
  std::size_t retries = 0;           ///< client retry ladder activations
  std::size_t good_responses = 0;    ///< 200s + 404 probe misses (no fix yet)
  double goodput_rps = 0.0;          ///< good_responses / wall time
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
