// Microbenchmarks (google-benchmark): travel-time store and arrival
// prediction throughput — per-query server cost — plus the materialized
// arrival table's refresh and the per-GET render of one snapshot
// answer. servebench's `core.arrival_refresh_us_p50` times the serving
// refresh built on them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/arrival_table.hpp"
#include "core/predictor.hpp"
#include "core/traffic_map.hpp"
#include "sim/city.hpp"
#include "util/rng.hpp"

namespace {

using namespace wiloc;
using core::TravelObservation;
using core::TravelTimeStore;
using roadnet::EdgeId;
using roadnet::RouteId;

/// A trained store over a synthetic 60-edge network with 4 routes and
/// 20 days of history.
const TravelTimeStore& shared_store() {
  static const TravelTimeStore store = [] {
    TravelTimeStore s(DaySlots::paper_five_slots());
    Rng rng(5);
    for (int day = 0; day < 20; ++day) {
      for (unsigned route = 0; route < 4; ++route) {
        for (unsigned edge = 0; edge < 60; ++edge) {
          for (const double tod :
               {hms(7, 30), hms(9), hms(12), hms(15), hms(18, 30),
                hms(21)}) {
            s.add_history({EdgeId(edge), RouteId(route),
                           at_day_time(day, tod),
                           60.0 + rng.uniform(0.0, 40.0)});
          }
        }
      }
    }
    s.finalize_history();
    return s;
  }();
  return store;
}

void BM_HistoricalMeanLookup(benchmark::State& state) {
  const TravelTimeStore& store = shared_store();
  unsigned i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.historical_mean(EdgeId(i % 60), RouteId(i % 4), i % 5));
    ++i;
  }
}
BENCHMARK(BM_HistoricalMeanLookup);

void BM_AddRecentAndQuery(benchmark::State& state) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.finalize_history();
  Rng rng(7);
  double t = 0.0;
  for (auto _ : state) {
    t += 30.0;
    store.add_recent({EdgeId(static_cast<std::uint32_t>(rng.uniform_int(0, 59))),
                      RouteId(0), t, 80.0});
    benchmark::DoNotOptimize(store.recent(EdgeId(7), t, 1800.0, 8));
  }
}
BENCHMARK(BM_AddRecentAndQuery);

void BM_PredictSegmentTime(benchmark::State& state) {
  const TravelTimeStore& store = shared_store();
  const core::ArrivalPredictor predictor(store);
  unsigned i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict_segment_time(
        EdgeId(i % 60), RouteId(i % 4), at_day_time(25, hms(9))));
    ++i;
  }
}
BENCHMARK(BM_PredictSegmentTime);

/// The paper city with a store trained on its four routes (5 days of
/// history) and recent traversals on every other edge before 09:00 of
/// day 6, the query time below.
struct CityStore {
  sim::City city = sim::build_paper_city();
  TravelTimeStore store{DaySlots::paper_five_slots()};
  SimTime now = at_day_time(6, hms(9));

  CityStore() {
    Rng rng(11);
    for (const auto& route : city.routes)
      for (const EdgeId edge : route.edges())
        for (int day = 0; day < 5; ++day)
          for (const double tod : {hms(7, 30), hms(9), hms(12), hms(18, 30)})
            store.add_history({edge, route.id(), at_day_time(day, tod),
                               40.0 + rng.uniform(0.0, 40.0)});
    store.finalize_history();
    for (const auto& route : city.routes)
      for (std::size_t i = 0; i < route.edges().size(); i += 2)
        store.add_recent({route.edges()[i], route.id(),
                          now - 60.0 * static_cast<double>(1 + i % 9),
                          50.0 + rng.uniform(0.0, 40.0)});
  }
};

const CityStore& shared_city_store() {
  static const CityStore cs;
  return cs;
}

/// Eq. 9 for every stop of route 16 (91 stops) from a bus position that
/// sweeps the route: arg 0 calls predict_arrival once per stop (one walk
/// per stop), arg 1 calls predict_arrivals (one walk for all stops).
void BM_PredictArrivalsAllStops(benchmark::State& state) {
  const CityStore& cs = shared_city_store();
  const roadnet::BusRoute& route = cs.city.route_by_name("16");
  const core::ArrivalPredictor predictor(cs.store);
  const bool one_walk = state.range(0) == 1;
  std::vector<SimTime> arrivals(route.stop_count());
  double offset = 0.0;
  for (auto _ : state) {
    offset += 397.0;
    if (offset >= route.length()) offset -= route.length();
    if (one_walk) {
      arrivals = predictor.predict_arrivals(route, offset, cs.now);
    } else {
      for (std::size_t s = 0; s < route.stop_count(); ++s)
        arrivals[s] = predictor.predict_arrival(route, offset, cs.now, s);
    }
    benchmark::DoNotOptimize(arrivals.data());
  }
  state.SetLabel(one_walk ? "one walk" : "per-stop loop");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(route.stop_count()));
}
BENCHMARK(BM_PredictArrivalsAllStops)->Arg(0)->Arg(1);

/// An arrival table over the paper city with `trips` trips spread over
/// its four routes, each at its own offset.
struct CityTable {
  const CityStore& cs = shared_city_store();
  core::ArrivalPredictor predictor{cs.store};
  core::TrafficMapBuilder traffic{cs.store, predictor};
  core::ArrivalTable table{cs.store, predictor, traffic};
  std::vector<const roadnet::BusRoute*> route_of;
  std::vector<double> offset;

  explicit CityTable(std::size_t trips) {
    std::vector<EdgeId> edges;
    for (const auto& route : cs.city.routes)
      edges.insert(edges.end(), route.edges().begin(), route.edges().end());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    table.set_traffic_edges(std::move(edges));
    for (std::size_t i = 0; i < trips; ++i) {
      const roadnet::BusRoute& route =
          cs.city.routes[i % cs.city.routes.size()];
      route_of.push_back(&route);
      offset.push_back(route.length() * static_cast<double>(i) /
                       static_cast<double>(trips + 1));
      table.track(roadnet::TripId(static_cast<std::uint32_t>(i)), &route);
    }
  }

  /// Moves every trip 40 m (wrapping) and refreshes: every entry is
  /// recomputed and one snapshot is published.
  void step() {
    for (std::size_t i = 0; i < offset.size(); ++i) {
      offset[i] += 40.0;
      if (offset[i] >= route_of[i]->length()) offset[i] = 0.0;
    }
    table.refresh(cs.now, [this](roadnet::TripId trip) {
      return std::optional<double>(offset[trip.value()]);
    });
  }
};

/// One serving refresh with every trip moved (arg: trips); items are
/// (trip, stop) answers materialized.
void BM_ArrivalTableRefresh(benchmark::State& state) {
  CityTable ct(static_cast<std::size_t>(state.range(0)));
  std::int64_t answers = 0;
  for (auto _ : state) {
    ct.step();
    for (const auto& [trip, ta] : ct.table.snapshot()->trips)
      answers += static_cast<std::int64_t>(ta->arrival.size());
  }
  state.SetItemsProcessed(answers);
}
BENCHMARK(BM_ArrivalTableRefresh)->Arg(46);

/// The bytes one snapshot GET answers with: `body[stop]` of one
/// published (trip, stop), cycling over every answer of a 46-trip
/// snapshot. Time per iteration is ns per rendered answer.
void BM_SnapshotArrivalRender(benchmark::State& state) {
  CityTable ct(46);
  ct.step();
  const auto snap = ct.table.snapshot();
  std::vector<std::pair<const core::TripArrivals*, std::size_t>> answers;
  for (const auto& [trip, ta] : snap->trips)
    for (std::size_t stop = 0; stop < ta->body.size(); ++stop)
      answers.emplace_back(ta.get(), stop);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [ta, stop] = answers[i];
    std::string body = ta->body[stop];
    benchmark::DoNotOptimize(body.data());
    if (++i == answers.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotArrivalRender);

}  // namespace

BENCHMARK_MAIN();
