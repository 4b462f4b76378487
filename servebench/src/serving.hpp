// The end-to-end serving workloads: an in-process WiLocatorServer +
// WiLocatorService (two nodes behind a ClusterRouter for `routed`) at
// wilocator_serve's serving defaults, driven over loopback HttpClient
// connections, with a lock-free snapshot watcher and the post-run
// correctness checks. See README.md for what each workload stresses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ingest_engine.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "util/obs.hpp"

namespace servebench {

enum class Workload { ingest, read, routed };

const char* name_of(Workload w);

inline constexpr std::size_t kBatchScans = 128;
/// The `read` workload's open-loop uplink rate, the same on every commit:
/// 20 batches/s, about 1/18 of the scans/s the `ingest` workload measured
/// on the reference box (median 47k), rounded to whole batches. At the
/// 10 s scan period of the paper's simulations that is 25,600 phones
/// reporting at once. See README.md.
inline constexpr double kPacedScansPerS = 20.0 * kBatchScans;
/// Trip-id offset between replay rounds (round r of base trip i has id
/// kFirstTripId + i + r * kTripStride).
inline constexpr std::uint32_t kTripStride = 100000;
/// Sim-time shift between replay rounds: round r replays the live window
/// r days later, so per-trip time order and time-of-day both hold.
inline constexpr double kRoundShiftS = 86400.0;

/// The live window split into per-connection 128-scan batches (trips
/// are sharded across uplink connections by id, each connection's share
/// in time order) and rendered as POST /v1/scans bodies for any round.
class Plan {
 public:
  struct ScanRef {
    std::uint32_t trip;    ///< index into Inputs::live
    std::uint32_t report;  ///< index into that trip's reports
  };

  Plan(const Inputs& in, std::size_t uplinks);

  std::size_t uplinks() const { return batches_.size(); }
  const std::vector<std::vector<ScanRef>>& batches(std::size_t conn) const {
    return batches_[conn];
  }
  /// Trips whose first scan is in batch b of the connection.
  const std::vector<std::uint32_t>& first_seen(std::size_t conn,
                                               std::size_t b) const {
    return first_seen_[conn][b];
  }
  std::size_t round_scans() const { return round_scans_; }

  static std::uint32_t trip_id(std::uint32_t index, std::size_t round) {
    return kFirstTripId + index +
           static_cast<std::uint32_t>(round) * kTripStride;
  }
  static std::uint32_t index_of(std::uint32_t id) {
    return (id - kFirstTripId) % kTripStride;
  }
  static std::size_t round_of(std::uint32_t id) {
    return (id - kFirstTripId) / kTripStride;
  }

  /// The POST body of batch b of a connection in a round. `wire_times`
  /// (optional) receives each scan's time exactly as the server parses it.
  std::string body(std::size_t conn, std::size_t b, std::size_t round,
                   std::vector<double>* wire_times = nullptr) const;

  /// The round's submissions in the order the connections' batches were
  /// built (for component replays; decodes exactly like the bodies).
  std::vector<std::vector<wiloc::core::ScanSubmission>> decoded_batches(
      std::size_t round) const;

 private:
  const Inputs* in_;
  std::vector<std::vector<std::vector<ScanRef>>> batches_;
  std::vector<std::vector<std::vector<std::uint32_t>>> first_seen_;
  /// [trip][report] -> `,"readings":[...]}` (the round-independent tail
  /// of one scan's JSON object).
  std::vector<std::vector<std::string>> readings_json_;
  std::size_t round_scans_ = 0;
};

struct ServingOptions {
  Workload workload = Workload::ingest;
  double seconds = 10.0;    ///< measured window
  double warmup_s = 1.0;    ///< load before the window opens
  bool traced = false;      ///< host handlers behind timing fronts
  std::string state_dir;    ///< persistence directories go below
};

/// Everything one serving run measured.
struct ServingReport {
  double setup_s = 0.0;
  double window_s = 0.0;
  double scans_per_s = 0.0;               ///< over the whole window
  std::vector<double> slice_scans_per_s;  ///< per one-second slice
  Summary post_ms;
  double read_qps = 0.0;
  Summary read_us;
  Summary visible_ms;
  double fix_error_m_p50 = 0.0;
  std::size_t fix_samples = 0;
  double eta_error_s_p50 = 0.0;
  std::size_t eta_samples = 0;
  double rss_mb = 0.0;  ///< growth from before the set-up
  Summary pace_lateness_ms;  ///< open-loop uplink (read) only
  double probe_us = 0.0;     ///< median machine-speed probe in the window
  double cpu_cores = 0.0;    ///< process CPU seconds per window second

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t not_found = 0;     ///< "no fix yet" 404s (not failures)
  std::uint64_t invisible = 0;     ///< visibility samples past the bound
  std::uint64_t unjudged = 0;      ///< samples with no later fix at all
  std::vector<std::string> violations;  ///< failed correctness checks

  // Traced runs only.
  Summary post_handler_us;
  Summary get_handler_us;
  Summary post_rtt_us;
  Summary router_handler_us;
  Summary router_self_us;
  std::vector<Span> spans;
  /// Counter sums over every node (+ router.* from the router).
  std::map<std::string, std::uint64_t> counters;
};

ServingReport run_serving(const Inputs& in, const Plan& plan,
                          const ServingOptions& options);

/// Seconds a visibility sample may take before it counts as failed
/// (about 20x the p99 seen on the reference box).
inline constexpr double kVisibleBoundS = 1.0;

}  // namespace servebench
