// Real-time traffic map (paper Sections IV & V-B3).
//
// Per segment, the classifier standardizes the *recent travel-time
// residual* against the segment's historical residual distribution:
// z = (eps_recent - E[eps]) / sigma(eps). Working on residuals rather
// than velocities removes the route-dependent factor (a Rapid bus is
// always faster) and the segment-dependent speed limit. Rule of thumb
// thresholds: |z| beyond 1.64 -> "very slow" (95% confidence), beyond
// 1.00 -> "slow". Segments with no recent traversal are "unknown" — the
// unconfirmed segments the paper criticizes in the agency map; WiLocator
// fills them using the temporal-constancy prediction.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/predictor.hpp"
#include "core/travel_time.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

enum class TrafficState { Unknown, Normal, Slow, VerySlow };

/// Rendering helper for bench/example output.
const char* to_string(TrafficState state);

/// One segment's classification.
struct SegmentTraffic {
  TrafficState state = TrafficState::Unknown;
  double z_score = 0.0;      ///< standardized residual (0 when unknown)
  std::size_t recent_count = 0;
  bool inferred = false;     ///< true when filled by prediction, not data
};

struct TrafficMapParams {
  double very_slow_z = 1.64;  ///< 95% one-sided rule of thumb
  double slow_z = 1.00;
  double recent_window_s = 35.0 * 60.0;
  std::size_t max_recent = 8;
  bool infer_unknowns = true;  ///< predict segments with no recent pass
};

/// Obs handles for classification outcomes; all-null by default.
struct TrafficMetrics {
  obs::Counter* normal = nullptr;
  obs::Counter* slow = nullptr;
  obs::Counter* very_slow = nullptr;
  obs::Counter* unknown = nullptr;
  obs::Counter* inferred = nullptr;  ///< filled by prediction, not data
};

/// The traffic map over a set of edges at one instant.
struct TrafficMap {
  SimTime time = 0.0;
  std::unordered_map<roadnet::EdgeId, SegmentTraffic> segments;

  std::size_t count(TrafficState state) const;
  std::size_t unknown_count() const { return count(TrafficState::Unknown); }
};

/// Builds traffic maps from the store (+ predictor for inference). A
/// map is a pure function of the store, so nothing here is persisted:
/// a restarted server rebuilds it from the restored store.
class TrafficMapBuilder {
 public:
  /// `store` must be finalized; both must outlive the builder.
  TrafficMapBuilder(const TravelTimeStore& store,
                    const ArrivalPredictor& predictor,
                    TrafficMapParams params = {});

  /// Classifies the given edges at time `now`.
  TrafficMap build(const std::vector<roadnet::EdgeId>& edges,
                   SimTime now) const;

  /// Classifies one edge.
  SegmentTraffic classify(roadnet::EdgeId edge, SimTime now) const;

  void set_metrics(const TrafficMetrics& metrics) { metrics_ = metrics; }

 private:
  TrafficState state_for_z(double z) const;
  void count_state(const SegmentTraffic& seg) const;

  const TravelTimeStore* store_;
  const ArrivalPredictor* predictor_;
  TrafficMapParams params_;
  TrafficMetrics metrics_;
};

}  // namespace wiloc::core
