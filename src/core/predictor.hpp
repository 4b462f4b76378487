// Arrival-time prediction (paper Eqs. 5, 8, 9).
//
// Per segment:   Tp(i,j,t) = Th(i,j,l) + mean_k [ Tr(i,k,l) - Th(i,k,l) ]
// where the correction averages the residuals of the buses (of *any*
// route sharing the segment, unless configured otherwise) that most
// recently traversed it — the temporal-consistency lever that
// distinguishes WiLocator from same-route-only predictors [28, 29].
//
// Arrival at a downstream stop (Eq. 9) chains the fractional remainder
// of the current segment, the full intermediate segments, and the
// fraction of the stop's segment — advancing the clock as it goes so
// that a horizon crossing a slot boundary uses the next slot's
// statistics ("the computation will be separated slot-by-slot").
#pragma once

#include <optional>
#include <vector>

#include "core/travel_time.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

struct PredictorOptions {
  bool use_recent = true;    ///< Eq.-8 correction; false = schedule-style
  bool cross_route = true;   ///< use recents of other routes too
  double recent_window_s = 35.0 * 60.0;  ///< recency horizon
  std::size_t max_recent = 8;            ///< J in Eq. 5
  double correction_clamp_frac = 0.8;    ///< |corr| <= frac * Th
  double correction_shrinkage = 1.5;     ///< corr *= n/(n + this): thin
                                         ///< evidence is trusted less
  double min_segment_time_s = 5.0;
  double fallback_speed_frac = 0.55;     ///< of the limit, for cold edges
};

/// Stable fingerprint over every option that shapes how the persisted
/// recent-correction state (the store's recent rings) is interpreted.
/// The server embeds it in checkpoints; a mismatch on recovery flags
/// configuration drift (persist.config_mismatch) instead of silently
/// re-reading old state under new semantics.
std::uint64_t options_fingerprint(const PredictorOptions& options);

/// Obs handles for the prediction path; all-null by default. Updates are
/// wait-free, so the const query methods stay thread-safe.
struct PredictorMetrics {
  obs::Counter* predictions = nullptr;  ///< segment estimates served
  obs::Counter* fallbacks = nullptr;    ///< cold-edge speed-limit estimates
  obs::HistogramMetric* correction_s = nullptr;  ///< applied Eq.-8 correction
};

/// Stateless prediction over a TravelTimeStore (which must outlive the
/// predictor and be finalized before querying).
class ArrivalPredictor {
 public:
  explicit ArrivalPredictor(const TravelTimeStore& store,
                            PredictorOptions options = {});

  /// Eq. 8: expected travel time of `route` across `edge` around time t.
  /// nullopt when no historical data exists for any route on the edge.
  std::optional<double> predict_segment_time(roadnet::EdgeId edge,
                                             roadnet::RouteId route,
                                             SimTime t) const;

  /// The shrunk (unclamped) Eq.-5 residual correction computed from the
  /// buses that recently traversed `edge`, any route. nullopt when no
  /// recent traversal has a historical baseline. This is the
  /// temporal-consistency signal on its own — the traffic-map builder
  /// consults it to infer the state of segments it has no fresh
  /// observations for.
  std::optional<double> recent_correction(roadnet::EdgeId edge,
                                          SimTime t) const;

  /// Travel time from route offset `from` to `to` (from <= to) starting
  /// at `t`, slot-by-slot. Segments with no history fall back to a
  /// speed-limit estimate, so a value is always produced.
  double predict_travel_time(const roadnet::BusRoute& route, double from,
                             double to, SimTime t) const;

  /// Eq. 9: absolute arrival time at the stop for a bus currently at
  /// `current_offset`. Requires a valid stop index; returns `now` when
  /// the stop is behind the bus.
  SimTime predict_arrival(const roadnet::BusRoute& route,
                          double current_offset, SimTime now,
                          std::size_t stop_index) const;

  /// predict_arrival for every stop of the route, indexed by stop, in
  /// one walk over the remaining edges (O(edges + stops) segment
  /// estimates instead of O(edges x stops)). Bit-identical to calling
  /// predict_arrival per stop.
  std::vector<SimTime> predict_arrivals(const roadnet::BusRoute& route,
                                        double current_offset,
                                        SimTime now) const;

  const PredictorOptions& options() const { return options_; }
  const TravelTimeStore& store() const { return *store_; }

  void set_metrics(const PredictorMetrics& metrics) { metrics_ = metrics; }

 private:
  /// Segment time with the cold-start fallback applied.
  double segment_time_or_fallback(const roadnet::BusRoute& route,
                                  std::size_t edge_index, SimTime t) const;

  /// Adds to `elapsed` the time to cross the part of edge `e` inside
  /// [from, to], starting at t + elapsed and split slot by slot.
  void charge_edge(const roadnet::BusRoute& route, std::size_t e, double from,
                   double to, SimTime t, double& elapsed) const;

  /// Shrunk (unclamped) mean residual of the recent traversals of `edge`,
  /// optionally restricted to one route. nullopt when none has a
  /// historical baseline.
  std::optional<double> correction_from_recents(
      roadnet::EdgeId edge, std::optional<roadnet::RouteId> same_route_only,
      SimTime t) const;

  const TravelTimeStore* store_;
  PredictorOptions options_;
  PredictorMetrics metrics_;
};

}  // namespace wiloc::core
