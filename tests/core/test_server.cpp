#include "core/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "../helpers.hpp"
#include "sim/city.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

struct ServerFixture {
  testing::MiniCity city;
  sim::TrafficModel traffic{31};
  WiLocatorServer server;

  ServerFixture()
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots()) {}

  void train(int days = 3) {
    Rng rng(55);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < days; ++day) {
      for (std::size_t r = 0; r < city.routes.size(); ++r) {
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r],
              traffic, at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            server.load_history(
                {city.routes[r].edges()[seg.edge_index],
                 city.routes[r].id(), seg.exit, seg.travel_time()});
          }
        }
      }
    }
    server.finalize_history();
  }
};

TEST(WiLocatorServer, FullPipeline) {
  ServerFixture f;
  f.train();

  Rng rng(77);
  const auto trip = sim::simulate_trip(
      TripId(5), f.city.route_a(), f.city.profiles[0], f.traffic,
      at_day_time(5, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, f.city.route_a(), f.city.aps,
                                       f.city.model, scanner, rng);

  f.server.begin_trip(TripId(5), f.city.route_a().id());
  EXPECT_TRUE(f.server.has_trip(TripId(5)));

  std::size_t fixes = 0;
  for (const auto& report : reports)
    if (f.server.ingest(TripId(5), report.scan).has_value()) ++fixes;
  EXPECT_GT(fixes, reports.size() / 2);

  // Position is known and plausible.
  const auto position = f.server.position(TripId(5));
  ASSERT_TRUE(position.has_value());
  EXPECT_GE(*position, 0.0);
  EXPECT_LE(*position, f.city.route_a().length());

  // ETA query for the last stop from mid-trip state.
  const SimTime now = reports.back().scan.time;
  const auto eta = f.server.eta(TripId(5), 3, now);
  ASSERT_TRUE(eta.has_value());
  EXPECT_GE(*eta, now);

  // Traffic map covers all edges of both routes.
  const TrafficMap map = f.server.traffic_map(now);
  EXPECT_EQ(map.segments.size(), 6u);  // 5 main edges + 1 branch

  // Segment observations were harvested into the recent store.
  bool any_recent = false;
  for (const auto edge : f.city.route_a().edges())
    if (!f.server.store().recent(edge, now, 3600.0, 8).empty())
      any_recent = true;
  EXPECT_TRUE(any_recent);

  f.server.end_trip(TripId(5));
  // Ingest after end_trip is a structured rejection, not an exception.
  const auto closed = f.server.ingest(TripId(5), reports.back().scan);
  EXPECT_EQ(closed.status, IngestStatus::rejected);
  EXPECT_EQ(closed.reason, RejectReason::closed_trip);
  // Post-hoc queries still work.
  EXPECT_NO_THROW(f.server.tracker(TripId(5)));
  EXPECT_NO_THROW(f.server.anomalies(TripId(5)));

  // Server-wide health counters account for every submission.
  const IngestStats stats = f.server.ingest_stats();
  EXPECT_EQ(stats.submitted, reports.size() + 1);
  EXPECT_EQ(stats.rejected(RejectReason::closed_trip), 1u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_TRUE(stats.accounted());
}

TEST(WiLocatorServer, ErrorsOnUnknownIds) {
  ServerFixture f;
  // Ingest for an unregistered trip never throws: it is a rejection.
  const auto result = f.server.ingest(TripId(9), rf::WifiScan{});
  EXPECT_EQ(result.status, IngestStatus::rejected);
  EXPECT_EQ(result.reason, RejectReason::unknown_trip);
  EXPECT_EQ(f.server.ingest_stats().rejected(RejectReason::unknown_trip),
            1u);
  EXPECT_THROW(f.server.position(TripId(9)), NotFound);
  EXPECT_THROW(f.server.eta(TripId(9), 0, 0.0), NotFound);
  EXPECT_THROW(f.server.end_trip(TripId(9)), NotFound);
  EXPECT_THROW(f.server.flush_trip(TripId(9)), NotFound);
  EXPECT_THROW(f.server.trip_ingest_stats(TripId(9)), NotFound);
  EXPECT_THROW(f.server.begin_trip(TripId(1), roadnet::RouteId(7)),
               NotFound);
  EXPECT_THROW(f.server.index_for(roadnet::RouteId(7)), NotFound);
  EXPECT_FALSE(f.server.has_trip(TripId(9)));
}

TEST(WiLocatorServer, RejectsDuplicateTrip) {
  ServerFixture f;
  f.server.begin_trip(TripId(1), f.city.route_a().id());
  EXPECT_THROW(f.server.begin_trip(TripId(1), f.city.route_a().id()),
               StateError);
}

TEST(WiLocatorServer, EtaWithoutFixIsNullopt) {
  ServerFixture f;
  f.server.begin_trip(TripId(1), f.city.route_a().id());
  EXPECT_FALSE(f.server.eta(TripId(1), 1, 0.0).has_value());
  EXPECT_FALSE(f.server.position(TripId(1)).has_value());
}

TEST(WiLocatorServer, IndexPerRoute) {
  ServerFixture f;
  EXPECT_DOUBLE_EQ(f.server.index_for(f.city.route_a().id()).route_length(),
                   f.city.route_a().length());
  EXPECT_DOUBLE_EQ(f.server.index_for(f.city.route_b().id()).route_length(),
                   f.city.route_b().length());
  EXPECT_EQ(&f.server.route(f.city.route_a().id()), &f.city.route_a());
}

TEST(WiLocatorServer, ExportsSvdBuildTime) {
  // The constructor built both routes' SVDs; /metrics shows how long.
  ServerFixture f;
  EXPECT_GT(f.server.metrics_snapshot().gauge("server.svd_build_s"), 0.0);
}

TEST(WiLocatorServer, ExportsSetUpPhases) {
  // Set-up runs from construction start to the end of finalize_history
  // (checkpoint and trim included); it contains both timed phases.
  ServerFixture f;
  EXPECT_EQ(f.server.metrics_snapshot().gauge("server.setup_s"), 0.0);
  f.train(1);
  const obs::Snapshot snap = f.server.metrics_snapshot();
  const double setup_s = snap.gauge("server.setup_s");
  EXPECT_GT(snap.gauge("server.finalize_s"), 0.0);
  EXPECT_GE(setup_s,
            snap.gauge("server.svd_build_s") + snap.gauge("server.finalize_s"));
}

TEST(WiLocatorServer, ExportsHeapInUse) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators bypass glibc's malloc statistics";
#elif defined(__GLIBC__)
  // The allocator's total covers every mem.* owner it is compared with.
  ServerFixture f;
  const obs::Snapshot snap = f.server.metrics_snapshot();
  EXPECT_GT(snap.gauge("mem.heap_in_use_bytes"),
            snap.gauge("svd.index_bytes") + snap.gauge("mem.trip_state_bytes"));
#else
  GTEST_SKIP() << "mallinfo2 is glibc-only";
#endif
}

TEST(WiLocatorServer, ExportsSvdIndexBytes) {
  // The resident size of the learned route indexes, summed once at
  // construction.
  ServerFixture f;
  std::size_t want = 0;
  for (const roadnet::BusRoute* route :
       {&f.city.route_a(), &f.city.route_b()}) {
    const auto* index = dynamic_cast<const svd::RouteSvd*>(
        &f.server.index_for(route->id()));
    ASSERT_NE(index, nullptr);
    want += index->heap_bytes();
  }
  EXPECT_GT(want, 0u);
  EXPECT_EQ(f.server.metrics_snapshot().gauge("svd.index_bytes"),
            static_cast<double>(want));
}

TEST(WiLocatorServer, RequiresRoutes) {
  testing::MiniCity city;
  EXPECT_THROW(WiLocatorServer({}, city.ap_snapshot(), city.model,
                               DaySlots::paper_five_slots()),
               ContractViolation);
}

// -- parallel route-index build --------------------------------------------

TEST(ParallelRouteBuild, IndexesMatchSerialConstruction) {
  // The paper corridor: four routes built concurrently. Each index must
  // equal a RouteSvd built alone on this thread, metre by metre.
  const sim::City city = sim::build_paper_city();
  ASSERT_GE(city.routes.size(), 2u);
  for (const std::size_t order : {2u, 3u}) {
    ServerConfig config;
    config.svd.order = order;
    const WiLocatorServer server(city.route_pointers(), city.ap_snapshot(),
                                 *city.rf_model,
                                 DaySlots::paper_five_slots(), config);
    for (const roadnet::BusRoute* route : city.route_pointers()) {
      SCOPED_TRACE(route->name() + " order " + std::to_string(order));
      const auto* built = dynamic_cast<const svd::RouteSvd*>(
          &server.index_for(route->id()));
      ASSERT_NE(built, nullptr);
      const svd::RouteSvd serial(*route, city.ap_snapshot(), *city.rf_model,
                                 config.svd);
      ASSERT_EQ(built->intervals().size(), serial.intervals().size());
      for (std::size_t i = 0; i < serial.intervals().size(); ++i) {
        ASSERT_EQ(built->intervals()[i].begin, serial.intervals()[i].begin);
        ASSERT_EQ(built->intervals()[i].end, serial.intervals()[i].end);
      }
      for (double offset = 0.0; offset <= route->length(); offset += 1.0)
        ASSERT_TRUE(std::ranges::equal(built->signature_at(offset),
                                       serial.signature_at(offset)))
            << offset;
    }
  }
}

TEST(ParallelRouteBuild, BuildFailureKeepsItsExceptionType) {
  // The precondition fails inside the build threads; the constructor
  // rethrows it unchanged.
  const sim::City city = sim::build_paper_city();
  ServerConfig config;
  config.svd.order = 0;
  EXPECT_THROW(WiLocatorServer(city.route_pointers(), city.ap_snapshot(),
                               *city.rf_model, DaySlots::paper_five_slots(),
                               config),
               ContractViolation);
}

#if defined(__linux__) && defined(__GLIBC__)

/// Resident set size in bytes, from /proc/self/statm.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(WiLocatorServer, FinalizeReturnsHistoryScratchToTheOs) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep their own free lists";
#endif
  testing::MiniCity city;
  WiLocatorServer server({&city.route_a(), &city.route_b()},
                         city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots());
  // ~30k distinct observations: the dedup set holds one node each until
  // finalize_history() drops it.
  constexpr int kObservations = 30000;
  for (int i = 0; i < kObservations; ++i) {
    const auto& route = city.routes[static_cast<std::size_t>(i % 2)];
    const auto& edges = route.edges();
    const auto edge = edges[static_cast<std::size_t>(i / 2) % edges.size()];
    server.load_history({edge, route.id(), 600.0 + 37.0 * i, 40.0 + i % 50});
  }
  const long before = resident_bytes();
  server.finalize_history();
  const long after = resident_bytes();
  // Freeing the raw history's buffer alone (an mmap chunk) gives back
  // ~0.7 MiB; the set's ~1.3 MiB of nodes only leave with a trim, and
  // its ~0.3 MiB bucket array only when the set is swapped away rather
  // than cleared (a clear() gave back 2000-2064 KiB in all, the swap
  // 2332-2396 KiB).
  EXPECT_LT(after, before - 2200L * 1024)
      << "resident before finalize " << before / 1024 << " KiB, after "
      << after / 1024 << " KiB";
}

#endif  // __linux__ && __GLIBC__

}  // namespace
}  // namespace wiloc::core
