// Determinism under concurrency: ingest_batch on one and four workers,
// fed the shared chaos schedule (faulted, interleaved, with unknown-trip
// and closed-trip submissions), must produce bit-identical Fix
// sequences, identical per-trip and aggregate IngestStats, identical
// traffic maps, identical ETA predictions and identical store bytes to
// the serial server fed the same submission sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../chaos_schedule.hpp"
#include "core/server.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;
using testing::ChaosRound;
using testing::ChaosSchedule;

void expect_identical_stats(const IngestStats& a, const IngestStats& b,
                            const char* what) {
  EXPECT_EQ(a.submitted, b.submitted) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.deferred, b.deferred) << what;
  EXPECT_EQ(a.reordered, b.reordered) << what;
  EXPECT_EQ(a.fixes, b.fixes) << what;
  EXPECT_EQ(a.degraded_fixes, b.degraded_fixes) << what;
  EXPECT_EQ(a.rejected_by_reason, b.rejected_by_reason) << what;
  EXPECT_EQ(a.readings_dropped_invalid, b.readings_dropped_invalid) << what;
  EXPECT_EQ(a.readings_dropped_weak, b.readings_dropped_weak) << what;
  EXPECT_EQ(a.readings_dropped_duplicate, b.readings_dropped_duplicate)
      << what;
  EXPECT_EQ(a.readings_dropped_unknown_ap, b.readings_dropped_unknown_ap)
      << what;
}

/// Every observable the serial reference and a batched run must share.
void expect_same_run(const ChaosSchedule& schedule,
                     const WiLocatorServer& serial,
                     const WiLocatorServer& batched) {
  // 1) Bit-identical fix sequences, trip by trip.
  for (const TripId trip : schedule.trips) {
    const auto& fa = serial.tracker(trip).fixes();
    const auto& fb = batched.tracker(trip).fixes();
    ASSERT_EQ(fa.size(), fb.size()) << "trip " << trip.value();
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].time, fb[i].time);
      EXPECT_EQ(fa[i].route_offset, fb[i].route_offset);
      EXPECT_EQ(fa[i].confidence, fb[i].confidence);
      EXPECT_EQ(fa[i].degraded, fb[i].degraded);
    }
  }

  // 2) Identical health counters, per trip and in aggregate.
  for (const TripId trip : schedule.trips)
    expect_identical_stats(serial.trip_ingest_stats(trip),
                           batched.trip_ingest_stats(trip), "per-trip");
  expect_identical_stats(serial.ingest_stats(), batched.ingest_stats(),
                         "aggregate");
  EXPECT_TRUE(batched.ingest_stats().accounted());

  // 3) Identical recent-store contents => identical traffic maps.
  const SimTime now = at_day_time(ChaosSchedule::kChaosDay, hms(10));
  const TrafficMap map_a = serial.traffic_map(now);
  const TrafficMap map_b = batched.traffic_map(now);
  ASSERT_EQ(map_a.segments.size(), map_b.segments.size());
  for (const auto& [edge, seg] : map_a.segments) {
    const auto it = map_b.segments.find(edge);
    ASSERT_NE(it, map_b.segments.end());
    EXPECT_EQ(seg.state, it->second.state);
    EXPECT_EQ(seg.z_score, it->second.z_score);
    EXPECT_EQ(seg.recent_count, it->second.recent_count);
    EXPECT_EQ(seg.inferred, it->second.inferred);
  }

  // 4) Identical ETA predictions (post-hoc, from the final fix).
  for (const TripId trip : schedule.trips) {
    const auto pa = serial.position(trip);
    const auto pb = batched.position(trip);
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (pa.has_value()) {
      EXPECT_EQ(*pa, *pb);
    }
    const auto ea = serial.eta(trip, 2, now);
    const auto eb = batched.eta(trip, 2, now);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (ea.has_value()) {
      EXPECT_EQ(*ea, *eb);
    }
  }

  // 5) Identical learned state, byte for byte.
  EXPECT_TRUE(testing::same_bytes(testing::store_bytes(serial),
                                  testing::store_bytes(batched)));
}

TEST(ConcurrentDeterminism, FourWorkersMatchSerialOnChaosWorkload) {
  for (const std::uint64_t seed : testing::kChaosSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChaosSchedule schedule(seed, 10000);
    ASSERT_GE(schedule.scans, 10000u);
    const auto serial = testing::serial_reference(schedule);

    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      ServerConfig config;
      config.engine.workers = workers;
      config.engine.queue_capacity = 64;  // force queue churn
      auto batched = schedule.make_server(config);
      schedule.train(*batched);
      for (const ChaosRound& round : schedule.rounds)
        testing::apply_batched(*batched, round, schedule.batch_size);
      expect_same_run(schedule, *serial, *batched);
    }
  }
}

TEST(ConcurrentDeterminism, RepeatedThreadedRunsAreStable) {
  // Two independent threaded runs of the same schedule agree with each
  // other (a cheap guard against schedule-dependent state).
  const ChaosSchedule schedule(23, 1500);
  ServerConfig config;
  config.engine.workers = 4;
  config.engine.queue_capacity = 32;

  std::vector<std::vector<Fix>> runs[2];
  std::vector<std::byte> bytes[2];
  for (int run = 0; run < 2; ++run) {
    auto server = schedule.make_server(config);
    for (const ChaosRound& round : schedule.rounds)
      testing::apply_batched(*server, round, schedule.batch_size);
    for (const TripId trip : schedule.trips) {
      const FixLog& log = server->tracker(trip).fixes();
      runs[run].emplace_back(log.begin(), log.end());
    }
    bytes[run] = testing::store_bytes(*server);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t t = 0; t < runs[0].size(); ++t) {
    ASSERT_EQ(runs[0][t].size(), runs[1][t].size()) << "trip index " << t;
    for (std::size_t i = 0; i < runs[0][t].size(); ++i) {
      EXPECT_EQ(runs[0][t][i].time, runs[1][t][i].time);
      EXPECT_EQ(runs[0][t][i].route_offset, runs[1][t][i].route_offset);
    }
  }
  EXPECT_TRUE(testing::same_bytes(bytes[0], bytes[1]));
}

}  // namespace
}  // namespace wiloc::core
