// Real-time per-trip tracking.
//
// Chains positioner -> mobility filter over the scan stream of one bus
// and converts the resulting fix trajectory into *segment observations*:
// when consecutive fixes straddle an intersection, the crossing time is
// interpolated assuming steady speed between the two fixes —
// t(A, B) * dr(A, boundary) / dr(A, B) — exactly the Fig. 5 scheme. Each
// fully traversed segment yields one TravelObservation for the store.
#pragma once

#include <optional>
#include <vector>

#include "core/fix_log.hpp"
#include "core/mobility_filter.hpp"
#include "core/positioner.hpp"
#include "core/travel_time.hpp"
#include "roadnet/route.hpp"

namespace wiloc::core {

/// Tracks one trip. The route and positioner must outlive the tracker.
class BusTracker {
 public:
  BusTracker(const roadnet::BusRoute& route,
             const SvdPositioner& positioner,
             MobilityFilterParams filter_params = {});

  /// Processes one scan; returns the resulting fix (if any). Scans must
  /// arrive in time order (an IngestGuard enforces this in front of the
  /// server's trackers); malformed readings (NaN RSSI, duplicate AP ids)
  /// are tolerated — the positioner sanitizes them — and a scan that
  /// matches nothing yields a dead-reckoned fix flagged Fix::degraded.
  std::optional<Fix> ingest(const rf::WifiScan& scan);

  /// All fixes so far (time-ordered).
  const FixLog& fixes() const { return fixes_; }

  /// Segment traversals completed so far, drained or not. Grows as the
  /// bus crosses intersections.
  std::size_t completed_count() const { return completed_; }

  /// Moves out the segment traversals completed since the last drain;
  /// each entry's travel time came from interpolated boundary-crossing
  /// times. The tracker keeps no copy: a server drains incrementally
  /// into its store, the one owner of every observation.
  std::vector<TravelObservation> drain_segments();

  /// Heap bytes held: the fix log and the undrained segments (no
  /// allocator overhead).
  std::size_t heap_bytes() const;

  const roadnet::BusRoute& route() const { return *route_; }

  /// Current best estimate of the bus's route offset, if tracking.
  std::optional<double> current_offset() const;

 private:
  void cross_boundaries(const Fix& prev, const Fix& cur);

  const roadnet::BusRoute* route_;
  const SvdPositioner* positioner_;
  MobilityFilter filter_;
  FixLog fixes_;
  std::vector<TravelObservation> segments_;  ///< not yet drained
  std::size_t completed_ = 0;

  // Boundary-crossing state.
  std::size_t current_edge_ = 0;
  SimTime current_edge_enter_ = 0.0;
  bool enter_known_ = false;  ///< true when entry came from a crossing
};

}  // namespace wiloc::core
