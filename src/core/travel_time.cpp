#include "core/travel_time.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace wiloc::core {

TravelTimeStore::TravelTimeStore(DaySlots slots) : slots_(std::move(slots)) {}

std::size_t TravelTimeStore::CellKeyHash::operator()(
    const CellKey& k) const {
  return static_cast<std::size_t>(
      hash_coords(0x77694c6f63ULL, k.edge, k.route, k.slot));
}

TravelTimeStore::CellKey TravelTimeStore::cell_key(roadnet::EdgeId edge,
                                                   roadnet::RouteId route,
                                                   std::size_t slot) {
  return {edge.value(), route.value(), static_cast<std::uint32_t>(slot)};
}

std::uint64_t TravelTimeStore::edge_slot_key(roadnet::EdgeId edge,
                                             std::size_t slot) {
  return (static_cast<std::uint64_t>(edge.value()) << 32) |
         static_cast<std::uint64_t>(slot);
}

void TravelTimeStore::add_history(const TravelObservation& obs) {
  if (finalized_)
    throw StateError("TravelTimeStore: add_history after finalize_history");
  WILOC_EXPECTS(obs.travel_time > 0.0);
  const std::size_t slot = slots_.slot_of(obs.exit_time);
  history_[cell_key(obs.edge, obs.route, slot)].add(obs.travel_time);
  edge_slot_[edge_slot_key(obs.edge, slot)].add(obs.travel_time);
  raw_history_.push_back(obs);
  bump_edge(obs.edge);
}

void TravelTimeStore::finalize_history() {
  if (finalized_)
    throw StateError("TravelTimeStore: finalize_history called twice");
  for (const TravelObservation& obs : raw_history_) {
    const std::size_t slot = slots_.slot_of(obs.exit_time);
    const auto th = historical_mean(obs.edge, obs.route, slot);
    if (!th.has_value()) continue;
    residuals_[edge_slot_key(obs.edge, slot)].add(obs.travel_time - *th);
  }
  raw_history_.clear();
  raw_history_.shrink_to_fit();
  finalized_ = true;
  // Residual statistics just materialized: every edge's classification
  // and correction basis changed at once.
  epoch_floor_ = ++epoch_;
}

std::optional<double> TravelTimeStore::historical_mean(
    roadnet::EdgeId edge, roadnet::RouteId route, std::size_t slot) const {
  const auto it = history_.find(cell_key(edge, route, slot));
  if (it == history_.end() || it->second.empty()) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::historical_mean_any_route(
    roadnet::EdgeId edge, std::size_t slot) const {
  const auto it = edge_slot_.find(edge_slot_key(edge, slot));
  if (it == edge_slot_.end() || it->second.empty()) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::residual_mean(roadnet::EdgeId edge,
                                                     std::size_t slot) const {
  const auto it = residuals_.find(edge_slot_key(edge, slot));
  if (it == residuals_.end() || it->second.count() < 2) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::residual_stddev(
    roadnet::EdgeId edge, std::size_t slot) const {
  const auto it = residuals_.find(edge_slot_key(edge, slot));
  if (it == residuals_.end() || it->second.count() < 2) return std::nullopt;
  return it->second.stddev();
}

std::size_t TravelTimeStore::history_count(roadnet::EdgeId edge) const {
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < slots_.count(); ++slot) {
    const auto it = edge_slot_.find(edge_slot_key(edge, slot));
    if (it != edge_slot_.end()) n += it->second.count();
  }
  return n;
}

bool TravelTimeStore::add_recent(const TravelObservation& obs) {
  WILOC_EXPECTS(obs.travel_time > 0.0);
  auto& ring = recent_[obs.edge];
  // Keep the ring ordered by exit time (observations arrive in order in
  // practice; tolerate slight disorder by insertion).
  auto it = ring.end();
  while (it != ring.begin() && (it - 1)->exit_time > obs.exit_time) --it;
  // Entries sharing this exit time sit immediately before the insertion
  // point; an exact duplicate among them means this traversal is already
  // recorded (journal replay, re-fed stream) and must not count twice.
  for (auto dup = it; dup != ring.begin() &&
                      (dup - 1)->exit_time == obs.exit_time;
       --dup) {
    if (*(dup - 1) == obs) return false;
  }
  ring.insert(it, obs);
  constexpr std::size_t kMaxRing = 1024;
  if (ring.size() > kMaxRing) ring.pop_front();
  bump_edge(obs.edge);
  return true;
}

std::vector<TravelObservation> TravelTimeStore::recent(
    roadnet::EdgeId edge, SimTime now, double window_s,
    std::size_t max_count) const {
  WILOC_EXPECTS(window_s >= 0.0);
  std::vector<TravelObservation> out;
  const auto it = recent_.find(edge);
  if (it == recent_.end()) return out;
  for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
    if (r->exit_time > now) continue;      // future data is invisible
    if (now - r->exit_time > window_s) break;
    out.push_back(*r);
    if (out.size() >= max_count) break;
  }
  return out;
}

void TravelTimeStore::prune_recent(SimTime now, double window_s) {
  for (auto& [edge, ring] : recent_) {
    bool dropped = false;
    while (!ring.empty() && now - ring.front().exit_time > window_s) {
      ring.pop_front();
      dropped = true;
    }
    if (dropped) bump_edge(edge);
  }
}

void TravelTimeStore::bump_edge(roadnet::EdgeId edge) {
  edge_epoch_[edge] = ++epoch_;
}

std::uint64_t TravelTimeStore::edge_epoch(roadnet::EdgeId edge) const {
  const auto it = edge_epoch_.find(edge);
  const std::uint64_t own = it != edge_epoch_.end() ? it->second : 0;
  return std::max(own, epoch_floor_);
}

// -- persistence -----------------------------------------------------------

void encode_observation(BinWriter& w, const TravelObservation& obs) {
  w.put_u32(obs.edge.value());
  w.put_u32(obs.route.value());
  w.put_f64(obs.exit_time);
  w.put_f64(obs.travel_time);
}

TravelObservation decode_observation(BinReader& r) {
  TravelObservation obs;
  obs.edge = roadnet::EdgeId(r.get_u32());
  obs.route = roadnet::RouteId(r.get_u32());
  obs.exit_time = r.get_f64();
  obs.travel_time = r.get_f64();
  return obs;
}

namespace {
constexpr std::uint8_t kStoreFormatVersion = 1;

/// The entries of `map` in ascending key order, so snapshot bytes depend
/// only on the learned state and not on the hash map's insertion history.
template <typename Map, typename Less = std::less<>>
std::vector<const typename Map::value_type*> sorted_by_key(const Map& map,
                                                          Less less = {}) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [&](const auto* a, const auto* b) {
    return less(a->first, b->first);
  });
  return entries;
}
}  // namespace

void TravelTimeStore::save(BinWriter& w) const {
  w.put_u8(kStoreFormatVersion);
  slots_.encode(w);
  w.put_u8(finalized_ ? 1 : 0);

  const auto cell_less = [](const CellKey& a, const CellKey& b) {
    return std::tie(a.edge, a.route, a.slot) <
           std::tie(b.edge, b.route, b.slot);
  };
  w.put_u64(history_.size());
  for (const auto* entry : sorted_by_key(history_, cell_less)) {
    const auto& [key, stats] = *entry;
    w.put_u32(key.edge);
    w.put_u32(key.route);
    w.put_u32(key.slot);
    encode_stats(w, stats);
  }

  w.put_u64(edge_slot_.size());
  for (const auto* entry : sorted_by_key(edge_slot_)) {
    w.put_u64(entry->first);
    encode_stats(w, entry->second);
  }

  w.put_u64(residuals_.size());
  for (const auto* entry : sorted_by_key(residuals_)) {
    w.put_u64(entry->first);
    encode_stats(w, entry->second);
  }

  w.put_u64(raw_history_.size());
  for (const TravelObservation& obs : raw_history_)
    encode_observation(w, obs);

  w.put_u64(recent_.size());
  for (const auto* entry : sorted_by_key(recent_)) {
    const auto& [edge, ring] = *entry;
    w.put_u32(edge.value());
    w.put_u64(ring.size());
    for (const TravelObservation& obs : ring) encode_observation(w, obs);
  }
}

void TravelTimeStore::restore(BinReader& r) {
  const std::uint8_t version = r.get_u8();
  if (version != kStoreFormatVersion)
    throw DecodeError("TravelTimeStore: unknown snapshot format version " +
                      std::to_string(version));
  DaySlots slots = DaySlots::decode(r);
  const bool finalized = r.get_u8() != 0;

  decltype(history_) history;
  const std::uint64_t cells = r.get_u64();
  for (std::uint64_t i = 0; i < cells; ++i) {
    CellKey key{};
    key.edge = r.get_u32();
    key.route = r.get_u32();
    key.slot = r.get_u32();
    history.emplace(key, decode_stats(r));
  }

  decltype(edge_slot_) edge_slot;
  const std::uint64_t es = r.get_u64();
  for (std::uint64_t i = 0; i < es; ++i) {
    const std::uint64_t key = r.get_u64();
    edge_slot.emplace(key, decode_stats(r));
  }

  decltype(residuals_) residuals;
  const std::uint64_t res = r.get_u64();
  for (std::uint64_t i = 0; i < res; ++i) {
    const std::uint64_t key = r.get_u64();
    residuals.emplace(key, decode_stats(r));
  }

  decltype(raw_history_) raw;
  const std::uint64_t raw_n = r.get_u64();
  for (std::uint64_t i = 0; i < raw_n; ++i)
    raw.push_back(decode_observation(r));

  decltype(recent_) recent;
  const std::uint64_t edges = r.get_u64();
  for (std::uint64_t i = 0; i < edges; ++i) {
    const roadnet::EdgeId edge(r.get_u32());
    auto& ring = recent[edge];
    const std::uint64_t n = r.get_u64();
    for (std::uint64_t k = 0; k < n; ++k)
      ring.push_back(decode_observation(r));
  }

  // Everything decoded without throwing: commit atomically.
  slots_ = std::move(slots);
  finalized_ = finalized;
  history_ = std::move(history);
  edge_slot_ = std::move(edge_slot);
  residuals_ = std::move(residuals);
  raw_history_ = std::move(raw);
  recent_ = std::move(recent);
  // Epochs are process-local: the restored state replaces everything, so
  // every edge is "changed" relative to any epoch handed out before.
  edge_epoch_.clear();
  epoch_floor_ = ++epoch_;
}

}  // namespace wiloc::core
