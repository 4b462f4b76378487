// Chaos test: the guarded server survives a sustained multi-trip faulted
// scan stream — drops, reordering, duplication, RSSI corruption, clock
// skew, AP churn and AP outages at a combined ~15% rate — with zero
// uncaught exceptions and airtight ingest accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "../chaos_schedule.hpp"
#include "../helpers.hpp"
#include "core/server.hpp"
#include "sim/fault_injector.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

TEST(FaultInjection, ServerSurvivesTenThousandFaultedScans) {
  const testing::ChaosSchedule schedule(2024, 10000);
  auto server = schedule.make_server();
  schedule.train(*server);

  // Each round replays every base trip under a fresh trip id and a fresh
  // fault seed, interleaved round-robin across trips the way a shared
  // uplink would deliver them.
  const auto run = [&] {
    for (const testing::ChaosRound& round : schedule.rounds) {
      std::size_t scans = 0;
      for (const testing::ChaosOp& op : round) {
        testing::apply_op(*server, op);
        if (op.kind == testing::ChaosOp::Kind::end) {
          EXPECT_EQ(server->trip_ingest_stats(op.trip).deferred, 0u);
        }
        // Queries interleaved with ingest must never throw either.
        if (op.kind == testing::ChaosOp::Kind::scan && ++scans % 8 == 3 &&
            op.trip != testing::ChaosSchedule::kUnknownTrip) {
          server->position(op.trip);
          server->traffic_map(
              at_day_time(testing::ChaosSchedule::kChaosDay, hms(8)));
          server->anomalies(op.trip);
        }
      }
    }
  };
  ASSERT_NO_THROW(run());

  const IngestStats stats = server->ingest_stats();
  EXPECT_GE(stats.submitted, 10000u);
  EXPECT_TRUE(stats.accounted());
  EXPECT_EQ(stats.deferred, 0u);  // every trip was ended (flushed)
  // Each round submits one scan for an unknown trip and one for a trip
  // that already ended.
  EXPECT_EQ(stats.rejected(RejectReason::unknown_trip),
            schedule.rounds.size());
  EXPECT_EQ(stats.rejected(RejectReason::closed_trip),
            schedule.rounds.size());

  // Every fault class left its fingerprint in the health counters.
  EXPECT_GT(stats.reordered, 0u);               // delay faults absorbed
  EXPECT_GT(stats.dropped_late(), 0u);          // skew/delay beyond buffer
  EXPECT_GT(stats.rejected(RejectReason::duplicate_scan), 0u);
  EXPECT_GT(stats.readings_dropped_invalid, 0u);     // RSSI corruption
  EXPECT_GT(stats.readings_dropped_unknown_ap, 0u);  // AP churn
  EXPECT_GT(stats.degraded_fixes, 0u);  // coasted through bad scans

  // Graceful degradation: despite ~15% faults, the overwhelming majority
  // of accepted scans still produce a position fix.
  EXPECT_GT(stats.fixes, stats.accepted / 2);
}

TEST(FaultInjection, TrackingStaysUsefulUnderFaults) {
  testing::MiniCity city;
  sim::TrafficModel traffic(5);
  WiLocatorServer server({&city.route_a()}, city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots());

  Rng rng(88);
  const auto record = sim::simulate_trip(TripId(1), city.route_a(),
                                         city.profiles[0], traffic,
                                         at_day_time(2, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(record, city.route_a(), city.aps,
                                       city.model, scanner, rng);

  sim::FaultInjector injector(sim::FaultProfile::uniform(0.20), 3);
  const auto faulted = injector.apply(reports);

  server.begin_trip(TripId(1), city.route_a().id());
  for (const auto& report : faulted) server.ingest(TripId(1), report.scan);
  server.end_trip(TripId(1));

  // At a 20% fault rate the tracker still follows the bus: most fixes
  // land within 150 m of ground truth.
  const auto& fixes = server.tracker(TripId(1)).fixes();
  ASSERT_GT(fixes.size(), reports.size() / 2);
  std::size_t close = 0;
  for (const auto& fix : fixes) {
    const double err =
        std::abs(fix.route_offset - record.offset_at(fix.time));
    if (err <= 150.0) ++close;
  }
  EXPECT_GT(close, fixes.size() * 2 / 3);
  EXPECT_TRUE(server.ingest_stats().accounted());
}

}  // namespace
}  // namespace wiloc::core
