#include "core/arrival_table.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <string_view>
#include <utility>

#include "util/json_num.hpp"

namespace wiloc::core {

double wall_clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

char* put(char* p, std::string_view text) {
  return std::copy(text.begin(), text.end(), p);
}

char* put_int(char* p, std::uint64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

void append_num(std::string& out, double v) {
  char buf[kJsonNumChars];
  out.append(buf, put_json_num(buf, v));
}

}  // namespace

std::string encode_arrival_json(roadnet::TripId trip, std::size_t stop,
                                SimTime now, SimTime arrival) {
  // Built on the stack and copied once: the snapshot keeps one body per
  // (trip, stop), so each string is allocated at its exact size.
  char buf[64 + 2 * 20 + 3 * kJsonNumChars];
  char* p = put(buf, "{\"trip\":");
  p = put_int(p, trip.value());
  p = put(p, ",\"stop\":");
  p = put_int(p, stop);
  p = put(p, ",\"now\":");
  p = put_json_num(p, now);
  p = put(p, ",\"arrival_time\":");
  p = put_json_num(p, arrival);
  p = put(p, ",\"eta_s\":");
  p = put_json_num(p, arrival - now);
  p = put(p, "}");
  return std::string(buf, p);
}

std::string encode_traffic_map_json(const TrafficMap& map) {
  std::vector<std::pair<roadnet::EdgeId, SegmentTraffic>> segments(
      map.segments.begin(), map.segments.end());
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{\"t\":";
  append_num(out, map.time);
  out += ",\"segments\":[";
  bool first = true;
  for (const auto& [edge, seg] : segments) {
    if (!first) out += ',';
    first = false;
    out += "{\"edge\":";
    out += std::to_string(edge.value());
    out += ",\"state\":\"";
    out += to_string(seg.state);
    out += "\",\"z\":";
    append_num(out, seg.z_score);
    out += ",\"recent\":";
    out += std::to_string(seg.recent_count);
    out += seg.inferred ? ",\"inferred\":true}" : ",\"inferred\":false}";
  }
  out += "]}";
  return out;
}

const TripArrivals* ArrivalSnapshot::find(roadnet::TripId trip) const {
  const auto it = trips.find(trip);
  return it != trips.end() ? it->second.get() : nullptr;
}

const TripArrivals* ArrivalSnapshot::best(roadnet::RouteId route,
                                          std::size_t stop) const {
  const auto it = route_best.find(route_stop_key(route, stop));
  return it != route_best.end() ? it->second.get() : nullptr;
}

ArrivalTable::ArrivalTable(const TravelTimeStore& store,
                           const ArrivalPredictor& predictor,
                           const TrafficMapBuilder& traffic,
                           ArrivalTableParams params)
    : store_(&store),
      predictor_(&predictor),
      traffic_(&traffic),
      params_(params) {}

void ArrivalTable::track(roadnet::TripId trip,
                         const roadnet::BusRoute* route) {
  tracked_[trip] = Tracked{route, nullptr};
  dirty_ = true;
}

void ArrivalTable::drop(roadnet::TripId trip) {
  if (tracked_.erase(trip) > 0) dirty_ = true;
}

std::vector<roadnet::TripId> ArrivalTable::trips_on(
    roadnet::RouteId route) const {
  std::vector<roadnet::TripId> trips;
  for (const auto& [trip, t] : tracked_)
    if (t.route->id() == route) trips.push_back(trip);
  return trips;
}

bool ArrivalTable::remaining_changed(const roadnet::BusRoute& route,
                                     double offset,
                                     std::uint64_t seen) const {
  // The fractional remainder of the current edge is part of every
  // prediction, so the scan starts at the edge under the bus.
  const std::size_t first = route.position_at(offset).edge_index;
  const auto& edges = route.edges();
  for (std::size_t i = first; i < edges.size(); ++i)
    if (store_->edge_epoch(edges[i]) > seen) return true;
  return false;
}

std::shared_ptr<const TripArrivals> ArrivalTable::compute(
    roadnet::TripId trip, const roadnet::BusRoute& route, double offset,
    SimTime now, std::uint64_t epoch) const {
  auto out = std::make_shared<TripArrivals>();
  out->trip = trip;
  out->route = route.id();
  out->offset = offset;
  out->now = now;
  out->epoch = epoch;
  out->arrival = predictor_->predict_arrivals(route, offset, now);
  out->body.reserve(out->arrival.size());
  for (std::size_t s = 0; s < out->arrival.size(); ++s)
    out->body.push_back(encode_arrival_json(trip, s, now, out->arrival[s]));
  return out;
}

void ArrivalTable::refresh(SimTime now, const PositionFn& position_of) {
  if (!store_->finalized()) return;
  const double started_wall_s = wall_clock_s();
  const std::uint64_t epoch = store_->epoch();

  bool changed = dirty_;
  dirty_ = false;
  for (auto& [trip, t] : tracked_) {
    const std::optional<double> offset = position_of(trip);
    if (!offset.has_value()) {
      if (t.current != nullptr) {
        t.current.reset();
        changed = true;
        if (metrics_.invalidations != nullptr) metrics_.invalidations->inc();
      }
      continue;
    }
    if (t.current != nullptr && t.current->offset == *offset &&
        !remaining_changed(*t.route, *offset, t.current->epoch))
      continue;  // nothing this trip's answers depend on moved
    if (t.current != nullptr && metrics_.invalidations != nullptr)
      metrics_.invalidations->inc();
    t.current = compute(trip, *t.route, *offset, now, epoch);
    changed = true;
  }

  // Traffic body: a pure function of the learned state, so it follows
  // the store epoch, not the clock.
  if (traffic_epoch_ != epoch) {
    traffic_body_ = encode_traffic_map_json(traffic_->build(traffic_edges_,
                                                            now));
    traffic_epoch_ = epoch;
    changed = true;
  }

  if (changed) publish(now, epoch);
  if (metrics_.refresh_us != nullptr)
    metrics_.refresh_us->record((wall_clock_s() - started_wall_s) * 1e6);
}

void ArrivalTable::publish(SimTime now, std::uint64_t epoch) {
  auto snap = std::make_shared<ArrivalSnapshot>();
  snap->epoch = epoch;
  snap->now = now;
  snap->built_wall_s = wall_clock_s();
  snap->traffic_body = traffic_body_;
  snap->trips.reserve(tracked_.size());
  std::size_t entries = 0;
  for (const auto& [trip, t] : tracked_) {
    if (t.current == nullptr) continue;
    snap->trips.emplace(trip, t.current);
    entries += t.current->body.size();
    for (std::size_t s = 0; s < t.current->arrival.size(); ++s) {
      const std::uint64_t key =
          ArrivalSnapshot::route_stop_key(t.current->route, s);
      auto [it, inserted] = snap->route_best.emplace(key, t.current);
      if (!inserted && arrives_before(t.current->arrival[s], trip,
                                      it->second->arrival[s],
                                      it->second->trip))
        it->second = t.current;
    }
  }
  // The swap is the whole critical section: the retired generation is
  // freed (once no reader holds it) when `retired` leaves scope, off the
  // lock.
  std::shared_ptr<const ArrivalSnapshot> retired;
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    retired = std::exchange(published_, std::move(snap));
  }
  if (metrics_.rebuilds != nullptr) metrics_.rebuilds->inc();
  if (metrics_.entries != nullptr)
    metrics_.entries->set(static_cast<double>(entries));
  if (metrics_.epoch != nullptr)
    metrics_.epoch->set(static_cast<double>(epoch));
}

}  // namespace wiloc::core
