#include "core/ingest_guard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "../helpers.hpp"
#include "svd/route_svd.hpp"

namespace wiloc::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct GuardFixture {
  testing::MiniCity city;
  sim::TrafficModel traffic{9};
  svd::RouteSvd index;
  SvdPositioner positioner;

  GuardFixture()
      : index(city.route_a(), city.ap_snapshot(), city.model, {}),
        positioner(index) {}

  std::vector<sim::ScanReport> reports(std::uint64_t trip_seed = 4,
                                       std::uint64_t scan_seed = 5) {
    Rng rng(trip_seed);
    const auto trip = sim::simulate_trip(roadnet::TripId(0), city.route_a(),
                                         city.profiles[0], traffic,
                                         at_day_time(0, hms(11)), rng);
    Rng scan_rng(scan_seed);
    const rf::Scanner scanner;
    return sim::sense_trip(trip, city.route_a(), city.aps, city.model,
                           scanner, scan_rng);
  }

  /// A genuine scan taken at the given route offset and time.
  rf::WifiScan scan_at(double offset, SimTime t, std::uint64_t seed = 3) {
    Rng rng(seed);
    const rf::Scanner scanner;
    return scanner.scan(city.aps, city.model,
                        city.route_a().point_at(offset), t, rng);
  }
};

TEST(IngestGuard, CleanStreamBitIdenticalToRawTracker) {
  GuardFixture f;
  const auto reports = f.reports();

  BusTracker raw(f.city.route_a(), f.positioner);
  for (const auto& report : reports) raw.ingest(report.scan);

  BusTracker guarded(f.city.route_a(), f.positioner);
  IngestGuard guard(guarded, f.index);
  for (const auto& report : reports) {
    const auto result = guard.submit(report.scan);
    EXPECT_NE(result.status, IngestStatus::rejected);
  }
  guard.flush();

  ASSERT_EQ(raw.fixes().size(), guarded.fixes().size());
  for (std::size_t i = 0; i < raw.fixes().size(); ++i) {
    EXPECT_EQ(raw.fixes()[i].time, guarded.fixes()[i].time);
    EXPECT_EQ(raw.fixes()[i].route_offset, guarded.fixes()[i].route_offset);
    EXPECT_EQ(raw.fixes()[i].confidence, guarded.fixes()[i].confidence);
    EXPECT_EQ(raw.fixes()[i].degraded, guarded.fixes()[i].degraded);
  }
  // Segment observations are identical too (same fixes, same crossings).
  const auto raw_segments = raw.drain_segments();
  const auto guarded_segments = guarded.drain_segments();
  ASSERT_EQ(raw_segments.size(), guarded_segments.size());
  for (std::size_t i = 0; i < raw_segments.size(); ++i) {
    EXPECT_EQ(raw_segments[i].travel_time, guarded_segments[i].travel_time);
  }

  const auto& stats = guard.stats();
  EXPECT_EQ(stats.submitted, reports.size());
  EXPECT_EQ(stats.accepted, reports.size());
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.reordered, 0u);
  EXPECT_TRUE(stats.accounted());
}

TEST(IngestGuard, RejectsEmptyScanBeforeFirstFix) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuard guard(tracker, f.index);
  const auto result = guard.submit(rf::WifiScan{});
  EXPECT_EQ(result.status, IngestStatus::rejected);
  EXPECT_EQ(result.reason, RejectReason::empty_scan);
  EXPECT_EQ(guard.stats().rejected(RejectReason::empty_scan), 1u);
  EXPECT_TRUE(guard.stats().accounted());
}

TEST(IngestGuard, EmptyScanWhileTrackingCoastsDegraded) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 0;  // immediate release
  IngestGuard guard(tracker, f.index, params);

  ASSERT_TRUE(guard.submit(f.scan_at(200.0, 10.0)).has_value());
  rf::WifiScan empty;
  empty.time = 20.0;
  const auto result = guard.submit(empty);
  EXPECT_EQ(result.status, IngestStatus::accepted);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(guard.stats().degraded_fixes, 1u);
}

TEST(IngestGuard, RejectsNonFiniteTimestamp) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuard guard(tracker, f.index);
  rf::WifiScan scan = f.scan_at(200.0, 10.0);
  scan.time = kNan;
  EXPECT_EQ(guard.submit(scan).reason, RejectReason::invalid_time);
  scan.time = std::numeric_limits<double>::infinity();
  EXPECT_EQ(guard.submit(scan).reason, RejectReason::invalid_time);
  EXPECT_TRUE(guard.stats().accounted());
}

TEST(IngestGuard, SanitizesCorruptAndDuplicateReadings) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 0;
  IngestGuard guard(tracker, f.index, params);

  rf::WifiScan scan = f.scan_at(200.0, 10.0);
  ASSERT_GE(scan.readings.size(), 2u);
  scan.readings.push_back({scan.readings.front().ap, -55.0});  // duplicate
  scan.readings.push_back({scan.readings[1].ap, kNan});        // NaN
  scan.readings.push_back({rf::ApId(0), 40.0});                // > 0 dBm
  scan.readings.push_back({rf::ApId(1), -300.0});              // junk

  const auto result = guard.submit(scan);
  EXPECT_EQ(result.status, IngestStatus::accepted);
  EXPECT_TRUE(result.has_value());
  EXPECT_FALSE(result->degraded);  // plenty of valid readings survive
  const auto& stats = guard.stats();
  EXPECT_EQ(stats.readings_dropped_duplicate, 1u);
  EXPECT_EQ(stats.readings_dropped_invalid, 3u);  // NaN + 2 out-of-range
  EXPECT_TRUE(stats.accounted());
}

TEST(IngestGuard, AllReadingsInvalidBeforeFirstFixIsRejected) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuard guard(tracker, f.index);
  rf::WifiScan scan;
  scan.time = 5.0;
  scan.readings = {{rf::ApId(3), kNan}, {rf::ApId(4), 77.0}};
  const auto result = guard.submit(scan);
  EXPECT_EQ(result.status, IngestStatus::rejected);
  EXPECT_EQ(result.reason, RejectReason::no_usable_readings);
}

TEST(IngestGuard, FiltersUnknownApsAndCoastsThroughChurn) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 0;
  IngestGuard guard(tracker, f.index, params);

  ASSERT_TRUE(guard.submit(f.scan_at(200.0, 10.0)).has_value());

  // Total AP churn: every AP in the scan is unknown to the index.
  rf::WifiScan churned;
  churned.time = 20.0;
  churned.readings = {{rf::ApId(900001), -40.0}, {rf::ApId(900002), -55.0}};
  const auto result = guard.submit(churned);
  EXPECT_EQ(result.status, IngestStatus::accepted);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->degraded);  // dead-reckoned through the churn
  EXPECT_EQ(guard.stats().readings_dropped_unknown_ap, 2u);

  // Recovery: the next genuine scan yields a measurement-backed fix.
  const auto recovered = guard.submit(f.scan_at(400.0, 30.0));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_FALSE(recovered->degraded);
}

TEST(IngestGuard, ReorderBufferAbsorbsJitter) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 2;
  IngestGuard guard(tracker, f.index, params);

  // Arrivals: t=0, t=20, t=10 (late but within the buffer), t=30.
  guard.submit(f.scan_at(100.0, 0.0));
  guard.submit(f.scan_at(300.0, 20.0));
  guard.submit(f.scan_at(200.0, 10.0));
  guard.submit(f.scan_at(400.0, 30.0));
  guard.flush();

  EXPECT_EQ(guard.stats().reordered, 1u);
  EXPECT_EQ(guard.stats().accepted, 4u);
  ASSERT_EQ(tracker.fixes().size(), 4u);
  for (std::size_t i = 1; i < tracker.fixes().size(); ++i)
    EXPECT_GT(tracker.fixes()[i].time, tracker.fixes()[i - 1].time);
  EXPECT_TRUE(guard.stats().accounted());
}

TEST(IngestGuard, DropsLateAndDuplicateScans) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 0;
  IngestGuard guard(tracker, f.index, params);

  EXPECT_EQ(guard.submit(f.scan_at(300.0, 100.0)).status,
            IngestStatus::accepted);
  // Far in the past: beyond the watermark, dropped late.
  EXPECT_EQ(guard.submit(f.scan_at(100.0, 50.0)).reason,
            RejectReason::stale_scan);
  // Same timestamp as the watermark: duplicate.
  EXPECT_EQ(guard.submit(f.scan_at(300.0, 100.0)).reason,
            RejectReason::duplicate_scan);
  EXPECT_EQ(guard.stats().dropped_late(), 1u);
  EXPECT_EQ(guard.stats().rejected(RejectReason::duplicate_scan), 1u);
  EXPECT_TRUE(guard.stats().accounted());
}

TEST(IngestGuard, DuplicateTimestampInBufferRejected) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 4;
  IngestGuard guard(tracker, f.index, params);
  EXPECT_EQ(guard.submit(f.scan_at(100.0, 10.0)).status,
            IngestStatus::deferred);
  EXPECT_EQ(guard.submit(f.scan_at(100.0, 10.0)).reason,
            RejectReason::duplicate_scan);
}

TEST(IngestGuard, RateLimitsPerTrip) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuardParams params;
  params.reorder_depth = 0;
  params.min_scan_spacing_s = 5.0;
  IngestGuard guard(tracker, f.index, params);

  EXPECT_EQ(guard.submit(f.scan_at(100.0, 0.0)).status,
            IngestStatus::accepted);
  EXPECT_EQ(guard.submit(f.scan_at(110.0, 2.0)).reason,
            RejectReason::rate_limited);
  EXPECT_EQ(guard.submit(f.scan_at(200.0, 10.0)).status,
            IngestStatus::accepted);
  EXPECT_EQ(guard.stats().rejected(RejectReason::rate_limited), 1u);
  EXPECT_TRUE(guard.stats().accounted());
}

TEST(IngestGuard, AccountingInvariantUnderMixedStream) {
  GuardFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  IngestGuard guard(tracker, f.index);

  Rng rng(123);
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.uniform(-8.0, 14.0);  // jittered, sometimes backwards
    rf::WifiScan scan = f.scan_at(
        std::min(1900.0, std::max(0.0, t * 8.0)), t, 1000 + i);
    if (rng.bernoulli(0.1)) scan.readings.clear();
    if (rng.bernoulli(0.1) && !scan.readings.empty())
      scan.readings.front().rssi_dbm = kNan;
    guard.submit(scan);
    EXPECT_TRUE(guard.stats().accounted());
  }
  guard.flush();
  const auto& stats = guard.stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_TRUE(stats.accounted());
  EXPECT_EQ(stats.accepted + stats.rejected_total(), 200u);
}

TEST(IngestGuard, RejectReasonNames) {
  EXPECT_STREQ(to_string(RejectReason::unknown_trip), "unknown_trip");
  EXPECT_STREQ(to_string(RejectReason::stale_scan), "stale_scan");
  EXPECT_STREQ(to_string(RejectReason::rate_limited), "rate_limited");
}

}  // namespace
}  // namespace wiloc::core
