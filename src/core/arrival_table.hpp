// Materialized arrival read path (rider-scale GETs).
//
// At production scale the dominant load is riders polling "when is my
// bus", not ingest. Every answer the read side can serve is a pure
// function of slowly-changing learned state (segment travel times,
// traffic residuals) and per-trip position — so instead of re-running
// the Eq.-9 prediction chain under the service lock per request, the
// control side materializes every (trip, downstream-stop) arrival time
// once and publishes the whole table as an immutable snapshot behind
// one shared pointer. Readers copy the pointer under a small mutex of
// its own — never the service lock, and never across any computation —
// then render the response bytes from the snapshot's numbers with no
// lock held; the snapshot they hold stays alive until the last reader
// drops it. The snapshot keeps values, not bytes: a refresh touches far
// more answers than riders read before the next one (DESIGN.md §13).
//
// Incrementality rides on TravelTimeStore's segment-update epochs: a
// trip's entries are recomputed only when its position moved or a
// segment on its *remaining* route (current edge onward) changed since
// the entries were computed. Upstream churn and other routes' segments
// leave the entry untouched — the (trip, stop, epoch) key the X-Epoch
// response header exposes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predictor.hpp"
#include "core/traffic_map.hpp"
#include "core/travel_time.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

struct ArrivalTableParams {
  /// Minimum wall-clock spacing between refreshes. 0 (the default, and
  /// what the tests rely on) refreshes on every publish, so snapshots
  /// track ingest synchronously. Serving deployments set tens of
  /// milliseconds: a hot ingest stream then pays materialization at
  /// most once per window instead of per batch, and skipped work stays
  /// pending until the next publish or WiLocatorServer::flush_arrivals
  /// (the service checkpoint poll calls the latter, bounding staleness
  /// even when ingest goes quiet).
  double min_refresh_wall_s = 0.0;
};

/// Steady-clock seconds; the timebase for snapshot ages and refresh
/// coalescing.
double wall_clock_s();

/// The /v1/arrival response body for one (trip, stop) answer.
std::string encode_arrival_json(roadnet::TripId trip, std::size_t stop,
                                SimTime now, SimTime arrival);

/// The /v1/traffic-map response body (segments sorted by edge id).
std::string encode_traffic_map_json(const TrafficMap& map);

/// The route-level arrival rule, shared by the snapshot's route-best
/// index and the server's slow-path query so both pick the same trip:
/// the soonest arrival wins, ties go to the lower trip id.
inline bool arrives_before(SimTime a, roadnet::TripId a_trip, SimTime b,
                           roadnet::TripId b_trip) {
  return a < b || (a == b && a_trip < b_trip);
}

struct TripArrivals;

/// Read-only view of one trip's /v1/arrival bodies: `body[stop]` renders
/// exactly encode_arrival_json(trip, stop, now, arrival[stop]).
class ArrivalBodies {
 public:
  explicit ArrivalBodies(const TripArrivals& entry) : entry_(&entry) {}
  std::size_t size() const;
  std::string operator[](std::size_t stop) const;

 private:
  const TripArrivals* entry_;
};

/// Immutable per-trip slice of the table: one predicted arrival per
/// stop. Non-copyable, because `body` views the entry it sits in.
struct TripArrivals {
  TripArrivals() = default;
  TripArrivals(const TripArrivals&) = delete;
  TripArrivals& operator=(const TripArrivals&) = delete;

  roadnet::TripId trip{};
  roadnet::RouteId route{};
  double offset = 0.0;  ///< route offset the entries were computed at
  SimTime now = 0.0;    ///< the "now" the answers are relative to
  std::uint64_t epoch = 0;  ///< store epoch at computation (X-Epoch)
  std::vector<SimTime> arrival;  ///< [stop] absolute arrival time
  ArrivalBodies body{*this};     ///< [stop] JSON, rendered per call
};

inline std::size_t ArrivalBodies::size() const {
  return entry_->arrival.size();
}

inline std::string ArrivalBodies::operator[](std::size_t stop) const {
  return encode_arrival_json(entry_->trip, stop, entry_->now,
                             entry_->arrival[stop]);
}

/// One published generation of the read path: everything a rider GET
/// needs, immutable, reachable through a single pointer copy.
struct ArrivalSnapshot {
  std::uint64_t epoch = 0;  ///< store epoch at publication
  SimTime now = 0.0;
  double built_wall_s = 0.0;  ///< steady-clock publication time

  std::unordered_map<roadnet::TripId, std::shared_ptr<const TripArrivals>>
      trips;

  /// Best (soonest-arrival) trip per (route, stop) — the rider-facing
  /// route-level query without the O(active-trips) rescan. One row per
  /// route with a live entry, ascending by route id; the row's stops
  /// are route_best[begin .. begin + stops).
  struct RouteRow {
    roadnet::RouteId route;
    std::uint32_t begin = 0;
    std::uint32_t stops = 0;
  };
  std::vector<RouteRow> route_rows;
  std::vector<const TripArrivals*> route_best;  ///< owned through `trips`

  /// The /v1/traffic-map body (null before the first build), encoded
  /// once per store epoch; generations share it until the epoch moves.
  std::shared_ptr<const std::string> traffic_body;

  const TripArrivals* find(roadnet::TripId trip) const;
  const TripArrivals* best(roadnet::RouteId route, std::size_t stop) const;

  /// Heap bytes the generation holds, counted from its own arrays and
  /// indexes (hash-map nodes as value + next pointer; no allocator
  /// overhead). Entries and the traffic body shared with other
  /// generations count in each.
  std::size_t heap_bytes() const;
};

/// Obs handles for the materialization side; all-null by default.
struct ArrivalTableMetrics {
  obs::Counter* invalidations = nullptr;  ///< entries discarded + redone
  obs::Counter* rebuilds = nullptr;       ///< snapshots published
  obs::Gauge* entries = nullptr;          ///< (trip, stop) answers live
  obs::Gauge* epoch = nullptr;            ///< published store epoch
  obs::Gauge* bytes = nullptr;  ///< heap_bytes() of the published snapshot
  obs::HistogramMetric* refresh_us = nullptr;  ///< wall time per refresh
};

/// Control-thread-owned materializer. All mutators (track/drop/refresh)
/// run under whatever serializes server control calls; snapshot() is
/// safe from any thread and takes only the publication mutex.
class ArrivalTable {
 public:
  ArrivalTable(const TravelTimeStore& store, const ArrivalPredictor& predictor,
               const TrafficMapBuilder& traffic,
               ArrivalTableParams params = {});

  void set_metrics(const ArrivalTableMetrics& metrics) { metrics_ = metrics; }

  const ArrivalTableParams& params() const { return params_; }

  /// The edge set the traffic map covers (the union of all route
  /// edges, like the slow path's server query).
  void set_traffic_edges(std::vector<roadnet::EdgeId> edges) {
    traffic_edges_ = std::move(edges);
  }

  /// Starts materializing the trip (route must outlive the table).
  void track(roadnet::TripId trip, const roadnet::BusRoute* route);
  /// Stops materializing; the next refresh publishes without the trip.
  void drop(roadnet::TripId trip);
  /// True when a track/drop awaits the next refresh.
  bool dirty() const { return dirty_; }
  /// The tracked (active) trips on one route, in no particular order.
  std::vector<roadnet::TripId> trips_on(roadnet::RouteId route) const;

  using PositionFn =
      std::function<std::optional<double>(roadnet::TripId)>;

  /// Recomputes invalidated entries and publishes a new snapshot when
  /// anything changed. No-op until the store is finalized. `now` is the
  /// server's event clock; `position_of` reads a trip's current offset
  /// (nullopt = no fix yet, the trip is left out of the snapshot).
  void refresh(SimTime now, const PositionFn& position_of);

  /// The current published generation (nullptr before the first
  /// refresh). Copies the pointer under the publication mutex, which
  /// guards nothing else: the one writer (publish) holds it only to swap
  /// the pointer.
  std::shared_ptr<const ArrivalSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

 private:
  struct Tracked {
    const roadnet::BusRoute* route = nullptr;
    std::shared_ptr<const TripArrivals> current;  ///< null before a fix
  };

  /// Did any segment from the trip's current edge onward change since
  /// the entries were computed at epoch `seen`?
  bool remaining_changed(const roadnet::BusRoute& route, double offset,
                         std::uint64_t seen) const;
  std::shared_ptr<const TripArrivals> compute(roadnet::TripId trip,
                                              const roadnet::BusRoute& route,
                                              double offset, SimTime now,
                                              std::uint64_t epoch) const;
  void publish(SimTime now, std::uint64_t epoch);

  const TravelTimeStore* store_;
  const ArrivalPredictor* predictor_;
  const TrafficMapBuilder* traffic_builder_;
  ArrivalTableParams params_;
  ArrivalTableMetrics metrics_;

  std::unordered_map<roadnet::TripId, Tracked> tracked_;
  std::vector<roadnet::EdgeId> traffic_edges_;
  std::shared_ptr<const std::string> traffic_body_;
  std::uint64_t traffic_epoch_ = 0;  ///< store epoch of traffic_body_
  bool dirty_ = false;

  mutable std::mutex published_mu_;
  std::shared_ptr<const ArrivalSnapshot> published_;  ///< published_mu_
};

}  // namespace wiloc::core
