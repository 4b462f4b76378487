// The materialized rider read path: segment-update epochs in the
// travel-time store, incremental (trip, stop) invalidation, rendered
// body parity with the slow-path predictor chain, the route-level
// best-trip index, the snapshot's heap budget, and the cross-midnight
// wrapped-slot case.
#include "core/arrival_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>

#include "../helpers.hpp"
#include "core/predictor.hpp"
#include "core/traffic_map.hpp"
#include "core/travel_time.hpp"
#include "util/binio.hpp"
#include "util/json_num.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;
using roadnet::TripId;

TEST(TravelTimeEpochs, PerEdgeBumpsAndWholeStoreFloors) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  const EdgeId e0(0), e1(1);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.edge_epoch(e0), 0u);

  store.add_history({e0, RouteId(0), at_day_time(0, hms(9)), 60.0});
  EXPECT_GT(store.edge_epoch(e0), 0u);
  EXPECT_EQ(store.edge_epoch(e1), 0u);  // untouched edge stays at 0

  // finalize is a whole-store invalidation: the floor covers edges that
  // never saw an observation.
  const std::uint64_t before_finalize = store.epoch();
  store.finalize_history();
  EXPECT_GT(store.edge_epoch(e1), before_finalize);
  EXPECT_GT(store.edge_epoch(e0), before_finalize);

  // A recent bumps its edge; an exact duplicate is dropped and must NOT
  // bump (journal replay cannot look like fresh evidence).
  const TravelObservation obs{e0, RouteId(0), at_day_time(1, hms(9)), 61.0};
  EXPECT_TRUE(store.add_recent(obs));
  const std::uint64_t after_recent = store.edge_epoch(e0);
  EXPECT_GT(after_recent, store.edge_epoch(e1));
  EXPECT_FALSE(store.add_recent(obs));
  EXPECT_EQ(store.edge_epoch(e0), after_recent);

  // prune_recent bumps only edges that actually dropped something.
  const SimTime t = at_day_time(1, hms(9));
  EXPECT_TRUE(store.add_recent({e1, RouteId(0), t + 600.0, 55.0}));
  const std::uint64_t e0_before = store.edge_epoch(e0);
  const std::uint64_t e1_before = store.edge_epoch(e1);
  store.prune_recent(t + 900.0, /*window_s=*/600.0);  // cutoff t+300
  EXPECT_GT(store.edge_epoch(e0), e0_before);   // its recent aged out
  EXPECT_EQ(store.edge_epoch(e1), e1_before);   // its recent survived

  // restore counts as "everything changed" in the restored-into store.
  BinWriter w;
  store.save(w);
  TravelTimeStore other(DaySlots::paper_five_slots());
  const std::uint64_t other_before = other.epoch();
  BinReader r(w.bytes());
  other.restore(r);
  EXPECT_GT(other.edge_epoch(EdgeId(99)), other_before);
}

/// Deterministic learned state over the MiniCity routes: constant
/// per-edge travel times across every slot, so predictions are stable
/// until the test injects fresh evidence.
struct TableFixture {
  wiloc::testing::MiniCity city;
  TravelTimeStore store;
  std::unique_ptr<ArrivalPredictor> predictor;
  std::unique_ptr<TrafficMapBuilder> traffic;
  std::unique_ptr<ArrivalTable> table;
  std::vector<EdgeId> all_edges;
  std::unordered_map<std::uint32_t, std::optional<double>> offsets;

  explicit TableFixture(DaySlots slots = DaySlots::paper_five_slots())
      : store(std::move(slots)) {
    for (int day = 0; day < 2; ++day)
      for (double tod = 900.0; tod < 86400.0; tod += 1800.0)
        for (const auto& route : city.routes)
          for (const EdgeId edge : route.edges())
            store.add_history({edge, route.id(), at_day_time(day, tod),
                               60.0 + 7.0 * edge.value()});
    store.finalize_history();
    predictor = std::make_unique<ArrivalPredictor>(store);
    traffic = std::make_unique<TrafficMapBuilder>(store, *predictor);
    table = std::make_unique<ArrivalTable>(store, *predictor, *traffic);
    for (const auto& route : city.routes)
      for (const EdgeId edge : route.edges())
        if (std::find(all_edges.begin(), all_edges.end(), edge) ==
            all_edges.end())
          all_edges.push_back(edge);
    table->set_traffic_edges(all_edges);
  }

  ArrivalTable::PositionFn position_fn() {
    return [this](TripId trip) { return offsets[trip.value()]; };
  }
};

TEST(ArrivalTable, MaterializedBodiesMatchThePredictorChain) {
  TableFixture f;
  const SimTime now = at_day_time(3, hms(9));
  f.table->track(TripId(1), &f.city.route_a());
  f.offsets[1] = 300.0;
  f.table->refresh(now, f.position_fn());

  const auto snap = f.table->snapshot();
  ASSERT_NE(snap, nullptr);
  const TripArrivals* a = snap->find(TripId(1));
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->body.size(), f.city.route_a().stop_count());
  for (std::size_t s = 0; s < f.city.route_a().stop_count(); ++s) {
    const SimTime expect =
        f.predictor->predict_arrival(f.city.route_a(), 300.0, now, s);
    EXPECT_EQ(a->arrival[s], expect);
    EXPECT_EQ(a->body[s], encode_arrival_json(TripId(1), s, now, expect));
  }
  // The traffic body matches a direct build at the same instant.
  ASSERT_NE(snap->traffic_body, nullptr);
  EXPECT_EQ(*snap->traffic_body,
            encode_traffic_map_json(f.traffic->build(f.all_edges, now)));
  EXPECT_EQ(snap->epoch, f.store.epoch());
}

TEST(ArrivalTable, RefreshWallTimeIsRecorded) {
  TableFixture f;
  obs::Registry registry;
  ArrivalTableMetrics metrics;
  metrics.refresh_us = &registry.histogram("arrival_cache.refresh_us");
  f.table->set_metrics(metrics);
  f.table->track(TripId(1), &f.city.route_a());
  f.offsets[1] = 300.0;
  f.table->refresh(at_day_time(3, hms(9)), f.position_fn());
  f.table->refresh(at_day_time(3, hms(9)), f.position_fn());  // no-op
  EXPECT_EQ(metrics.refresh_us->total(), 2u);
}

TEST(ArrivalTable, RecomputesIffARemainingSegmentChanged) {
  TableFixture f;
  obs::Registry reg;
  ArrivalTableMetrics metrics;
  metrics.invalidations = &reg.counter("inv");
  metrics.rebuilds = &reg.counter("reb");
  f.table->set_metrics(metrics);

  const auto& route_a = f.city.route_a();
  SimTime now = at_day_time(3, hms(9));
  f.table->track(TripId(1), &route_a);
  f.offsets[1] = 900.0;  // on main edge 2 (800 m .. 1200 m)
  f.table->refresh(now, f.position_fn());
  const auto s1 = f.table->snapshot();
  const TripArrivals* a1 = s1->find(TripId(1));
  ASSERT_NE(a1, nullptr);

  // Evidence on an edge *behind* the bus: the entry's bytes survive
  // untouched (same immutable object) even though the snapshot itself
  // republished for the traffic body.
  now += 60.0;
  f.store.add_recent({route_a.edges()[0], route_a.id(), now, 90.0});
  f.table->refresh(now, f.position_fn());
  const auto s2 = f.table->snapshot();
  EXPECT_EQ(s2->find(TripId(1)), a1);
  EXPECT_EQ(reg.counter("inv").value(), 0u);

  // Evidence on another route's private edge (B's branch): untouched.
  now += 60.0;
  f.store.add_recent(
      {f.city.route_b().edges().back(), f.city.route_b().id(), now, 90.0});
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->find(TripId(1)), a1);
  EXPECT_EQ(reg.counter("inv").value(), 0u);

  // Evidence on a *remaining* segment of the trip's route: recomputed.
  now += 60.0;
  const EdgeId downstream = route_a.edges()[3];
  for (int i = 0; i < 3; ++i)
    f.store.add_recent(
        {downstream, route_a.id(), now + i, 140.0 + i});  // ~2x historical
  f.table->refresh(now, f.position_fn());
  const auto s3 = f.table->snapshot();
  const TripArrivals* a3 = s3->find(TripId(1));
  ASSERT_NE(a3, nullptr);
  EXPECT_NE(a3, a1);
  EXPECT_GT(a3->epoch, a1->epoch);
  EXPECT_GE(reg.counter("inv").value(), 1u);
  // The slowdown is ahead of the bus, so the last-stop answer moved.
  const std::size_t last = a3->body.size() - 1;
  EXPECT_NE(a3->body[last], a1->body[last]);
  EXPECT_GT(a3->arrival.back(), a1->arrival.back());

  // Position movement alone also recomputes.
  f.offsets[1] = 950.0;
  f.table->refresh(now, f.position_fn());
  const TripArrivals* a4 = f.table->snapshot()->find(TripId(1));
  ASSERT_NE(a4, nullptr);
  EXPECT_NE(a4, a3);
  EXPECT_EQ(a4->offset, 950.0);

  // Losing the fix removes the trip from the next snapshot.
  f.offsets[1] = std::nullopt;
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->find(TripId(1)), nullptr);
  EXPECT_GT(reg.counter("reb").value(), 0u);
}

TEST(ArrivalTable, RouteBestIndexServesTheSoonestTrip) {
  TableFixture f;
  const auto& route_a = f.city.route_a();
  const SimTime now = at_day_time(3, hms(9));
  const std::size_t last = route_a.stop_count() - 1;
  f.table->track(TripId(1), &route_a);
  f.table->track(TripId(2), &route_a);
  f.offsets[1] = 300.0;
  f.offsets[2] = 1500.0;  // further along => arrives at the last stop first
  f.table->refresh(now, f.position_fn());

  const auto snap = f.table->snapshot();
  const TripArrivals* best = snap->best(route_a.id(), last);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->trip, TripId(2));
  EXPECT_LT(best->arrival[last], snap->find(TripId(1))->arrival[last]);
  // No trips on route B: the index answers nothing rather than rescanning.
  EXPECT_EQ(snap->best(f.city.route_b().id(), 0), nullptr);

  // The leader finishing hands the index to the remaining trip.
  f.table->drop(TripId(2));
  f.table->refresh(now, f.position_fn());
  const TripArrivals* next = f.table->snapshot()->best(route_a.id(), last);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->trip, TripId(1));
}

TEST(ArrivalTable, RouteBestMatchesBruteForce) {
  // Over seeded positions on both MiniCity routes and several refreshes,
  // best(route, stop) must be the arrives_before minimum over the
  // snapshot's own entries. Every third trip shares its predecessor's
  // offset (equal arrivals: the lower id wins), every fifth never gets a
  // fix, and some trips end between refreshes.
  TableFixture f;
  Rng rng(0x62657374);
  SimTime now = at_day_time(3, hms(8));
  constexpr std::uint32_t kTrips = 30;
  const auto route_of = [&](std::uint32_t id) -> const roadnet::BusRoute& {
    return f.city.routes[id < kTrips / 2 ? 0 : 1];
  };
  std::vector<std::uint32_t> live;
  for (std::uint32_t id = 1; id <= kTrips; ++id) {
    f.table->track(TripId(id), &route_of(id));
    live.push_back(id);
  }
  std::size_t ties = 0;
  for (int round = 0; round < 4; ++round) {
    now += 45.0;
    for (const std::uint32_t id : live) {
      const roadnet::BusRoute& route = route_of(id);
      if (id % 5 == 0) {
        f.offsets[id] = std::nullopt;
      } else if (id % 3 == 0 && &route_of(id - 1) == &route &&
                 f.offsets[id - 1].has_value()) {
        f.offsets[id] = f.offsets[id - 1];
      } else if (round == 0 || rng.bernoulli(0.5)) {
        f.offsets[id] = rng.uniform(0.0, route.length());
      }
    }
    // Re-tracking a trip whose offset a tie partner copies forces both
    // to be recomputed at this refresh's `now`, so their arrivals stay
    // equal.
    for (const std::uint32_t id : live)
      if (id % 3 == 0 && std::ranges::count(live, id - 1) == 1) {
        f.table->track(TripId(id), &route_of(id));
        f.table->track(TripId(id - 1), &route_of(id - 1));
      }
    f.table->refresh(now, f.position_fn());
    const auto snap = f.table->snapshot();
    ASSERT_NE(snap, nullptr);

    for (const auto& route : f.city.routes) {
      for (std::size_t stop = 0; stop <= route.stop_count(); ++stop) {
        // Spelled out rather than through arrives_before, so a broken
        // rule cannot agree with itself.
        const TripArrivals* expect = nullptr;
        std::size_t at_min = 0;
        for (const auto& [trip, ta] : snap->trips) {
          if (ta->route != route.id() || stop >= ta->arrival.size()) continue;
          const SimTime at = ta->arrival[stop];
          if (expect != nullptr && at == expect->arrival[stop]) {
            ++at_min;
            if (trip < expect->trip) expect = ta.get();
          } else if (expect == nullptr || at < expect->arrival[stop]) {
            at_min = 1;
            expect = ta.get();
          }
        }
        if (at_min > 1) ++ties;
        EXPECT_EQ(snap->best(route.id(), stop), expect)
            << "round " << round << " route " << route.id() << " stop "
            << stop;
      }
      EXPECT_EQ(snap->best(route.id(), route.stop_count()), nullptr);
    }
    EXPECT_EQ(snap->best(RouteId(99), 0), nullptr);
    for (std::uint32_t id = 5; id <= kTrips; id += 5)
      EXPECT_EQ(snap->find(TripId(id)), nullptr);

    // End a few trips before the next refresh.
    for (const std::uint32_t id : {1u + round, 16u + round}) {
      f.table->drop(TripId(id));
      std::erase(live, id);
    }
  }
  EXPECT_GT(ties, 0u);
}

TEST(ArrivalTable, HeapBytesPerAnswerWorkBudget) {
  // The snapshot holds numbers: one arrival time per (trip, stop), one
  // shared route-best slot per (route, stop), and a fixed term per trip
  // (the entry, its map node and bucket). Rendered bodies are not kept.
  TableFixture f;
  obs::Registry registry;
  ArrivalTableMetrics metrics;
  metrics.bytes = &registry.gauge("mem.arrival_table_bytes");
  f.table->set_metrics(metrics);
  const SimTime now = at_day_time(3, hms(9));
  f.table->refresh(now, f.position_fn());  // traffic map only
  const std::size_t empty_bytes = f.table->snapshot()->heap_bytes();

  Rng rng(0x6d656d);
  constexpr std::uint32_t kTrips = 40;
  for (std::uint32_t id = 1; id <= kTrips; ++id) {
    const roadnet::BusRoute& route = f.city.routes[id % 2];
    f.table->track(TripId(id), &route);
    f.offsets[id] = rng.uniform(0.0, route.length());
  }
  f.table->refresh(now + 30.0, f.position_fn());
  const auto snap = f.table->snapshot();
  std::size_t answers = 0;
  for (const auto& [trip, ta] : snap->trips) answers += ta->arrival.size();
  ASSERT_EQ(snap->trips.size(), kTrips);
  EXPECT_EQ(snap->route_best.size(), f.city.route_a().stop_count() +
                                         f.city.route_b().stop_count());
  const std::size_t per_trip = sizeof(TripArrivals) + 64;
  EXPECT_LE(snap->heap_bytes(),
            empty_bytes + answers * sizeof(SimTime) +
                snap->route_best.size() * sizeof(const TripArrivals*) +
                snap->route_rows.size() * sizeof(ArrivalSnapshot::RouteRow) +
                kTrips * per_trip);
  EXPECT_EQ(registry.gauge("mem.arrival_table_bytes").value(),
            static_cast<double>(snap->heap_bytes()));
}

TEST(ArrivalTable, WrappedSlotCoversCrossMidnightInvalidation) {
  // Quiet hours [22:00 .. 06:00) form one cyclic slot: evidence landing
  // just after midnight must invalidate entries computed just before it
  // (same slot, same learned cell), not be filed under a different slot.
  TableFixture f(DaySlots::from_boundaries_wrapped({hms(6), hms(22)}));
  ASSERT_TRUE(f.store.slots().wraps());
  const SimTime before_midnight = at_day_time(3, hms(23, 30));
  const SimTime after_midnight = at_day_time(4, hms(0, 30));
  ASSERT_EQ(f.store.slots().slot_of(before_midnight),
            f.store.slots().slot_of(after_midnight));

  const auto& route_a = f.city.route_a();
  f.table->track(TripId(1), &route_a);
  f.offsets[1] = 900.0;
  f.table->refresh(before_midnight, f.position_fn());
  const auto s1 = f.table->snapshot();
  const TripArrivals* a1 = s1->find(TripId(1));
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->now, before_midnight);

  // A slowdown observed after the midnight wrap, on a remaining segment.
  const EdgeId downstream = route_a.edges()[3];
  for (int i = 0; i < 3; ++i)
    f.store.add_recent(
        {downstream, route_a.id(), after_midnight + i, 150.0 + i});
  f.table->refresh(after_midnight, f.position_fn());
  const TripArrivals* a2 = f.table->snapshot()->find(TripId(1));
  ASSERT_NE(a2, nullptr);
  EXPECT_NE(a2, a1);
  EXPECT_EQ(a2->now, after_midnight);
  EXPECT_GT(a2->arrival.back() - a2->now, a1->arrival.back() - a1->now);
}

std::string printf_12g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

TEST(JsonNum, MatchesPrintf12gOnSeededBitPatterns) {
  Rng rng(0x6a736f6e);
  std::size_t finite = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) {
      ASSERT_EQ(json_num(v), "null");
      continue;
    }
    ++finite;
    ASSERT_EQ(json_num(v), printf_12g(v)) << std::bit_cast<std::uint64_t>(v);
  }
  EXPECT_GT(finite, 990'000u);
  // Magnitudes the encoders actually see: sim timestamps, ETAs, RSSI.
  for (int i = 0; i < 200'000; ++i) {
    const double v = rng.uniform(-2.0e6, 2.0e6);
    ASSERT_EQ(json_num(v), printf_12g(v)) << v;
  }
}

TEST(JsonNum, MatchesPrintf12gAtRoundingEdges) {
  // The fixed-notation fast path rounds the exact binary value itself:
  // probe where that can go wrong. Neighbours of every power of ten and
  // of the 12-digit carry point 9.999999999995 * 10^X (rounding up a
  // decade, or out of fixed notation at 1e12 and below 1e-4), exact
  // half-way ties at the 13th digit (half to even), and a log-uniform
  // sweep over the whole fixed range.
  const auto check = [](double v) {
    for (double s : {v, -v}) {
      ASSERT_EQ(json_num(s), printf_12g(s)) << std::bit_cast<std::uint64_t>(s);
    }
  };
  for (int x = -6; x <= 14; ++x) {
    for (double edge : {std::pow(10.0, x), 9.999999999995 * std::pow(10.0, x),
                        9.9999999999995 * std::pow(10.0, x)}) {
      double up = edge, down = edge;
      for (int i = 0; i < 64; ++i) {
        check(up);
        check(down);
        up = std::nextafter(up, HUGE_VAL);
        down = std::nextafter(down, 0.0);
      }
    }
  }
  // A tie at exponent X: v = t / 2^(q+1), t odd, q = 11 - X, so that
  // v * 10^q = t * 5^q / 2 ends in exactly .5.
  Rng rng(0x74696573);
  for (int i = 0; i < 200'000; ++i) {
    const int x = static_cast<int>(rng.uniform_int(-4, 11));
    const int q = 11 - x;
    const double lo = std::ldexp(std::pow(10.0, x), q + 1);
    const auto t = static_cast<std::int64_t>(rng.uniform(lo, 10.0 * lo)) | 1;
    check(std::ldexp(static_cast<double>(t), -(q + 1)));
  }
  for (int i = 0; i < 500'000; ++i)
    check(std::pow(10.0, rng.uniform(-5.0, 13.0)));
  check(0.0);
}

TEST(JsonNum, EdgeCases) {
  const double cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min() / 3.0,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          1e15,
                          1e16,
                          1e17,
                          999999999999.0,
                          999999999999.5,
                          1e12,
                          123456789012.0,
                          1234567890123.0,
                          9007199254740993.0,
                          0.0001,
                          0.00001,
                          0.1 + 0.2,
                          -60.5,
                          1728000.25};
  for (const double v : cases) EXPECT_EQ(json_num(v), printf_12g(v)) << v;
  for (int n = -100000; n <= 100000; ++n) ASSERT_EQ(json_num(n), printf_12g(n));
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_num(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_num(-0.0), "-0");
  EXPECT_EQ(json_num(1e16), "1e+16");
}

}  // namespace
}  // namespace wiloc::core
