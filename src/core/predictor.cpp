#include "core/predictor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace wiloc::core {

std::uint64_t options_fingerprint(const PredictorOptions& o) {
  std::uint64_t h = hash_coords(0x70726564ULL,  // "pred"
                                (o.use_recent ? 1u : 0u) |
                                    (o.cross_route ? 2u : 0u),
                                std::bit_cast<std::uint64_t>(o.recent_window_s),
                                o.max_recent);
  h = hash_coords(h, std::bit_cast<std::uint64_t>(o.correction_clamp_frac),
                  std::bit_cast<std::uint64_t>(o.correction_shrinkage),
                  std::bit_cast<std::uint64_t>(o.min_segment_time_s));
  return hash_coords(h, std::bit_cast<std::uint64_t>(o.fallback_speed_frac));
}

ArrivalPredictor::ArrivalPredictor(const TravelTimeStore& store,
                                   PredictorOptions options)
    : store_(&store), options_(options) {
  WILOC_EXPECTS(options_.recent_window_s > 0.0);
  WILOC_EXPECTS(options_.max_recent >= 1);
  WILOC_EXPECTS(options_.correction_clamp_frac >= 0.0);
  WILOC_EXPECTS(options_.fallback_speed_frac > 0.0 &&
                options_.fallback_speed_frac <= 1.0);
}

std::optional<double> ArrivalPredictor::predict_segment_time(
    roadnet::EdgeId edge, roadnet::RouteId route, SimTime t) const {
  const std::size_t slot = store_->slots().slot_of(t);

  // Th(i, j, l), falling back to the cross-route mean for this slot when
  // this particular route has no history here.
  std::optional<double> th = store_->historical_mean(edge, route, slot);
  if (!th.has_value()) th = store_->historical_mean_any_route(edge, slot);
  if (!th.has_value()) return std::nullopt;

  double prediction = *th;

  if (options_.use_recent) {
    const auto raw = correction_from_recents(
        edge,
        options_.cross_route ? std::nullopt
                             : std::optional<roadnet::RouteId>(route),
        t);
    if (raw.has_value()) {
      const double clamp = options_.correction_clamp_frac * *th;
      const double correction = std::clamp(*raw, -clamp, clamp);
      if (metrics_.correction_s != nullptr)
        metrics_.correction_s->record(correction);
      prediction += correction;
    }
  }

  return std::max(prediction, options_.min_segment_time_s);
}

std::optional<double> ArrivalPredictor::correction_from_recents(
    roadnet::EdgeId edge, std::optional<roadnet::RouteId> same_route_only,
    SimTime t) const {
  const DaySlots& slots = store_->slots();
  const auto recents = store_->recent(edge, t, options_.recent_window_s,
                                      options_.max_recent);
  double residual_sum = 0.0;
  std::size_t used = 0;
  for (const TravelObservation& r : recents) {
    if (same_route_only.has_value() && !(r.route == *same_route_only))
      continue;
    const std::size_t r_slot = slots.slot_of(r.exit_time);
    std::optional<double> r_th =
        store_->historical_mean(r.edge, r.route, r_slot);
    if (!r_th.has_value())
      r_th = store_->historical_mean_any_route(r.edge, r_slot);
    if (!r_th.has_value()) continue;
    residual_sum += r.travel_time - *r_th;
    ++used;
  }
  if (used == 0) return std::nullopt;
  // Shrink thin evidence toward zero: one noisy tracked bus should not
  // swing the estimate as much as a consistent platoon.
  const double n = static_cast<double>(used);
  return (residual_sum / n) * (n / (n + options_.correction_shrinkage));
}

std::optional<double> ArrivalPredictor::recent_correction(
    roadnet::EdgeId edge, SimTime t) const {
  return correction_from_recents(edge, std::nullopt, t);
}

double ArrivalPredictor::segment_time_or_fallback(
    const roadnet::BusRoute& route, std::size_t edge_index, SimTime t) const {
  if (metrics_.predictions != nullptr) metrics_.predictions->inc();
  const roadnet::EdgeId edge_id = route.edges()[edge_index];
  if (const auto tp = predict_segment_time(edge_id, route.id(), t);
      tp.has_value())
    return *tp;
  if (metrics_.fallbacks != nullptr) metrics_.fallbacks->inc();
  const roadnet::RoadSegment& edge = route.network().edge(edge_id);
  return edge.length() /
         (edge.speed_limit() * options_.fallback_speed_frac);
}

void ArrivalPredictor::charge_edge(const roadnet::BusRoute& route,
                                   std::size_t e, double from, double to,
                                   SimTime t, double& elapsed) const {
  const double edge_begin = route.edge_start_offset(e);
  const double edge_end = route.edge_end_offset(e);
  const double edge_len = edge_end - edge_begin;
  if (edge_len <= 0.0) return;
  const double span_begin = std::max(from, edge_begin);
  const double span_end = std::min(to, edge_end);
  if (span_end <= span_begin) return;
  // Eq. 9's dr(...)/dr(start, end) fraction terms, "separated
  // slot-by-slot": when crossing this edge outlasts the current
  // time-of-day slot, only the fraction coverable before the boundary
  // is charged at this slot's rate; the remainder re-evaluates the
  // edge under the next slot's statistics.
  double frac_remaining = (span_end - span_begin) / edge_len;
  const DaySlots& slots = store_->slots();
  int depth = 0;
  while (frac_remaining > 1e-12) {
    const SimTime clock = t + elapsed;
    const double full_time = segment_time_or_fallback(route, e, clock);
    const double time_needed = frac_remaining * full_time;
    const double to_boundary = slots.slot_end_time(clock) - clock;
    // Depth cap: a degenerate store (near-zero segment times over
    // many tiny slots) must not spin; finish at the current rate.
    if (time_needed <= to_boundary || full_time <= 0.0 || ++depth > 64) {
      elapsed += time_needed;
      return;
    }
    frac_remaining -= to_boundary / full_time;
    elapsed += to_boundary;
  }
}

double ArrivalPredictor::predict_travel_time(const roadnet::BusRoute& route,
                                             double from, double to,
                                             SimTime t) const {
  WILOC_EXPECTS(from <= to);
  from = std::clamp(from, 0.0, route.length());
  to = std::clamp(to, 0.0, route.length());
  if (to <= from) return 0.0;

  const std::size_t first = route.position_at(from).edge_index;
  const std::size_t last = route.position_at(to).edge_index;
  double elapsed = 0.0;
  for (std::size_t e = first; e <= last; ++e)
    charge_edge(route, e, from, to, t, elapsed);
  return elapsed;
}

SimTime ArrivalPredictor::predict_arrival(const roadnet::BusRoute& route,
                                          double current_offset, SimTime now,
                                          std::size_t stop_index) const {
  const double stop_offset = route.stop_offset(stop_index);
  if (stop_offset <= current_offset) return now;
  return now + predict_travel_time(route, current_offset, stop_offset, now);
}

std::vector<SimTime> ArrivalPredictor::predict_arrivals(
    const roadnet::BusRoute& route, double current_offset, SimTime now) const {
  // predict_arrival per stop, in one walk. Every edge before a stop's
  // own edge ends at or before the stop (position_at picks the last
  // edge starting at or before it), so predict_travel_time charges it
  // with span_end == edge_end whatever the stop: `elapsed` over those
  // edges is shared, and each stop adds only its last edge, on a copy,
  // in the same floating-point order as the per-stop chain.
  const std::size_t stops = route.stop_count();
  std::vector<SimTime> arrival(stops, now);
  const double from = std::clamp(current_offset, 0.0, route.length());
  std::size_t e = route.position_at(from).edge_index;
  double elapsed = 0.0;  // over the edges from the bus's up to e
  for (std::size_t s = 0; s < stops; ++s) {
    const double stop_offset = route.stop_offset(s);
    if (stop_offset <= current_offset) continue;
    const double to = std::clamp(stop_offset, 0.0, route.length());
    if (to <= from) {
      arrival[s] = now + 0.0;
      continue;
    }
    // Stops are strictly increasing along the route, so `last` never
    // falls behind the edges already charged.
    const std::size_t last = route.position_at(to).edge_index;
    for (; e < last; ++e) charge_edge(route, e, from, to, now, elapsed);
    double at_stop = elapsed;
    charge_edge(route, last, from, to, now, at_stop);
    arrival[s] = now + at_stop;
  }
  return arrival;
}

}  // namespace wiloc::core
