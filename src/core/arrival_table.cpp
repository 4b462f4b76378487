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
  // Built on the stack and copied once, so the string is allocated at
  // its exact size.
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
  const auto row = std::lower_bound(
      route_rows.begin(), route_rows.end(), route,
      [](const RouteRow& r, roadnet::RouteId id) { return r.route < id; });
  if (row == route_rows.end() || row->route != route || stop >= row->stops)
    return nullptr;
  return route_best[row->begin + stop];
}

namespace {

template <class Map>
std::size_t map_bytes(const Map& map) {
  return map.bucket_count() * sizeof(void*) +
         map.size() * (sizeof(void*) + sizeof(typename Map::value_type));
}

}  // namespace

std::size_t ArrivalSnapshot::heap_bytes() const {
  std::size_t bytes = map_bytes(trips) +
                      route_rows.capacity() * sizeof(RouteRow) +
                      route_best.capacity() * sizeof(const TripArrivals*);
  for (const auto& [trip, ta] : trips)
    bytes += sizeof(TripArrivals) + ta->arrival.capacity() * sizeof(SimTime);
  if (traffic_body != nullptr)
    bytes += sizeof(std::string) + traffic_body->capacity();
  return bytes;
}

ArrivalTable::ArrivalTable(const TravelTimeStore& store,
                           const ArrivalPredictor& predictor,
                           const TrafficMapBuilder& traffic,
                           ArrivalTableParams params)
    : store_(&store),
      predictor_(&predictor),
      traffic_builder_(&traffic),
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

  // Traffic map: a pure function of the learned state, so it follows
  // the store epoch, not the clock.
  if (traffic_epoch_ != epoch) {
    traffic_body_ = std::make_shared<const std::string>(
        encode_traffic_map_json(traffic_builder_->build(traffic_edges_, now)));
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
  std::vector<const TripArrivals*> live;
  live.reserve(tracked_.size());
  for (const auto& [trip, t] : tracked_) {
    if (t.current == nullptr) continue;
    snap->trips.emplace(trip, t.current);
    live.push_back(t.current.get());
  }

  // Route-best rows. Sorted by (route, trip), each route's entries are
  // adjacent: the first seeds its row, and a later one takes a stop only
  // by arriving strictly sooner, so ties keep the lower trip id.
  std::sort(live.begin(), live.end(),
            [](const TripArrivals* a, const TripArrivals* b) {
              return a->route != b->route ? a->route < b->route
                                          : a->trip < b->trip;
            });
  std::size_t entries = 0;
  std::size_t rows_needed = 0;
  std::size_t slots = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    entries += live[i]->arrival.size();
    if (i > 0 && live[i]->route == live[i - 1]->route) continue;
    ++rows_needed;
    slots += live[i]->arrival.size();
  }
  auto& rows = snap->route_rows;
  rows.reserve(rows_needed);
  snap->route_best.reserve(slots);
  for (const TripArrivals* ta : live) {
    if (rows.empty() || rows.back().route != ta->route) {
      rows.push_back({ta->route,
                      static_cast<std::uint32_t>(snap->route_best.size()),
                      static_cast<std::uint32_t>(ta->arrival.size())});
      snap->route_best.insert(snap->route_best.end(), ta->arrival.size(), ta);
      continue;
    }
    const TripArrivals** best = snap->route_best.data() + rows.back().begin;
    for (std::size_t s = 0; s < rows.back().stops; ++s)
      if (arrives_before(ta->arrival[s], ta->trip, best[s]->arrival[s],
                         best[s]->trip))
        best[s] = ta;
  }
  const std::size_t bytes = snap->heap_bytes();

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
  if (metrics_.bytes != nullptr)
    metrics_.bytes->set(static_cast<double>(bytes));
}

}  // namespace wiloc::core
