#include "core/tracker.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace wiloc::core {

BusTracker::BusTracker(const roadnet::BusRoute& route,
                       const SvdPositioner& positioner,
                       MobilityFilterParams filter_params)
    : route_(&route), positioner_(&positioner), filter_(filter_params) {}

std::optional<Fix> BusTracker::ingest(const rf::WifiScan& scan) {
  const auto candidates = positioner_->locate(scan);
  const auto fix = filter_.update(scan.time, candidates);
  if (!fix.has_value()) return std::nullopt;

  if (!fixes_.empty()) {
    cross_boundaries(fixes_.back(), *fix);
  } else {
    // First fix: know which edge we are on; its entry time is only
    // trustworthy if the bus is still near the route start.
    current_edge_ = route_->position_at(fix->route_offset).edge_index;
    current_edge_enter_ = fix->time;
    enter_known_ = fix->route_offset <= 30.0 && current_edge_ == 0;
  }
  fixes_.push_back(*fix);
  return fix;
}

void BusTracker::cross_boundaries(const Fix& prev, const Fix& cur) {
  if (cur.route_offset <= prev.route_offset) return;  // no forward motion
  const double gap = cur.route_offset - prev.route_offset;

  // Every edge-end boundary inside (prev, cur] was crossed; interpolate
  // each crossing time at the steady speed between the two fixes.
  std::size_t edge = route_->position_at(prev.route_offset).edge_index;
  while (edge < route_->edges().size()) {
    const double boundary = route_->edge_end_offset(edge);
    if (boundary > cur.route_offset) break;
    const double f = (boundary - prev.route_offset) / gap;
    const SimTime t_cross = prev.time + f * (cur.time - prev.time);

    if (enter_known_ && edge == current_edge_) {
      const double travel = t_cross - current_edge_enter_;
      if (travel > 0.0) {
        segments_.push_back({route_->edges()[edge], route_->id(), t_cross,
                             travel});
        ++completed_;
      }
    }
    // The crossing is the entry into the next edge.
    current_edge_ = edge + 1;
    current_edge_enter_ = t_cross;
    enter_known_ = true;
    ++edge;
  }
}

std::vector<TravelObservation> BusTracker::drain_segments() {
  return std::exchange(segments_, {});
}

std::size_t BusTracker::heap_bytes() const {
  return fixes_.heap_bytes() +
         segments_.capacity() * sizeof(TravelObservation);
}

std::optional<double> BusTracker::current_offset() const {
  const auto fix = filter_.last_fix();
  if (!fix.has_value()) return std::nullopt;
  return fix->route_offset;
}

}  // namespace wiloc::core
