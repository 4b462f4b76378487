#include "core/traffic_map.hpp"

#include "util/contracts.hpp"

namespace wiloc::core {

const char* to_string(TrafficState state) {
  switch (state) {
    case TrafficState::Unknown:
      return "unknown";
    case TrafficState::Normal:
      return "normal";
    case TrafficState::Slow:
      return "slow";
    case TrafficState::VerySlow:
      return "very-slow";
  }
  return "?";
}

std::size_t TrafficMap::count(TrafficState state) const {
  std::size_t n = 0;
  for (const auto& [edge, seg] : segments)
    if (seg.state == state) ++n;
  return n;
}

TrafficMapBuilder::TrafficMapBuilder(const TravelTimeStore& store,
                                     const ArrivalPredictor& predictor,
                                     TrafficMapParams params)
    : store_(&store), predictor_(&predictor), params_(params) {
  WILOC_EXPECTS(params_.very_slow_z > params_.slow_z);
  WILOC_EXPECTS(params_.slow_z > 0.0);
}

TrafficState TrafficMapBuilder::state_for_z(double z) const {
  if (z >= params_.very_slow_z) return TrafficState::VerySlow;
  if (z >= params_.slow_z) return TrafficState::Slow;
  return TrafficState::Normal;
}

SegmentTraffic TrafficMapBuilder::classify(roadnet::EdgeId edge,
                                           SimTime now) const {
  SegmentTraffic out;
  const std::size_t slot = store_->slots().slot_of(now);
  const auto res_mean = store_->residual_mean(edge, slot);
  const auto res_std = store_->residual_stddev(edge, slot);

  const auto recents =
      store_->recent(edge, now, params_.recent_window_s, params_.max_recent);
  out.recent_count = recents.size();

  // Mean recent residual eps-hat (Eq. 4's estimator), from observed data
  // when available, else from the predictor's inference.
  double residual = 0.0;
  bool have_signal = false;
  if (!recents.empty() && res_mean.has_value() && res_std.has_value() &&
      *res_std > 1e-9) {
    double sum = 0.0;
    std::size_t used = 0;
    for (const TravelObservation& r : recents) {
      const std::size_t r_slot = store_->slots().slot_of(r.exit_time);
      auto th = store_->historical_mean(r.edge, r.route, r_slot);
      if (!th.has_value())
        th = store_->historical_mean_any_route(r.edge, r_slot);
      if (!th.has_value()) continue;
      sum += r.travel_time - *th;
      ++used;
    }
    if (used > 0) {
      residual = sum / static_cast<double>(used);
      have_signal = true;
    }
  }

  if (!have_signal && params_.infer_unknowns && res_mean.has_value() &&
      res_std.has_value() && *res_std > 1e-9) {
    // No bus passed inside the map's (tighter) window: infer from the
    // predictor's temporal-consistency correction, which still sees
    // traversals over its own wider recency horizon. When the predictor
    // has nothing either the correction is zero — the estimate falls
    // back to Th and classifies as normal, the paper's default instead
    // of leaving segments unmarked.
    residual = predictor_->recent_correction(edge, now).value_or(0.0);
    have_signal = true;
    out.inferred = true;
  }

  if (!have_signal || !res_mean.has_value() || !res_std.has_value() ||
      *res_std <= 1e-9) {
    out.state = TrafficState::Unknown;
    count_state(out);
    return out;
  }

  out.z_score = (residual - *res_mean) / *res_std;
  out.state = state_for_z(out.z_score);
  count_state(out);
  return out;
}

void TrafficMapBuilder::count_state(const SegmentTraffic& seg) const {
  obs::Counter* c = nullptr;
  switch (seg.state) {
    case TrafficState::Unknown: c = metrics_.unknown; break;
    case TrafficState::Normal: c = metrics_.normal; break;
    case TrafficState::Slow: c = metrics_.slow; break;
    case TrafficState::VerySlow: c = metrics_.very_slow; break;
  }
  if (c != nullptr) c->inc();
  if (seg.inferred && metrics_.inferred != nullptr) metrics_.inferred->inc();
}

TrafficMap TrafficMapBuilder::build(const std::vector<roadnet::EdgeId>& edges,
                                    SimTime now) const {
  TrafficMap map;
  map.time = now;
  for (const roadnet::EdgeId edge : edges)
    map.segments.emplace(edge, classify(edge, now));
  return map;
}

}  // namespace wiloc::core
