#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "../helpers.hpp"
#include "svd/route_svd.hpp"

namespace wiloc::core {
namespace {

struct TrackerFixture {
  testing::MiniCity city;
  sim::TrafficModel traffic{9};
  svd::RouteSvd index;
  SvdPositioner positioner;

  TrackerFixture()
      : index(city.route_a(), city.ap_snapshot(), city.model, {}),
        positioner(index) {}

  sim::TripRecord trip(std::uint64_t seed = 4) {
    Rng rng(seed);
    return sim::simulate_trip(roadnet::TripId(0), city.route_a(),
                              city.profiles[0], traffic,
                              at_day_time(0, hms(11)), rng);
  }

  std::vector<sim::ScanReport> reports(const sim::TripRecord& trip,
                                       std::uint64_t seed = 5) {
    Rng rng(seed);
    const rf::Scanner scanner;
    return sim::sense_trip(trip, city.route_a(), city.aps, city.model,
                           scanner, rng);
  }
};

TEST(BusTracker, ProducesFixesForScans) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  std::size_t fixes = 0;
  for (const auto& report : reports)
    if (tracker.ingest(report.scan).has_value()) ++fixes;
  EXPECT_GT(fixes, reports.size() * 9 / 10);
  EXPECT_EQ(tracker.fixes().size(), fixes);
}

TEST(BusTracker, TrackingErrorIsBounded) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  double worst = 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& report : reports) {
    const auto fix = tracker.ingest(report.scan);
    if (!fix.has_value()) continue;
    const double err = std::abs(fix->route_offset - trip.offset_at(fix->time));
    worst = std::max(worst, err);
    sum += err;
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(sum / static_cast<double>(n), 30.0);
  EXPECT_LT(worst, 250.0);
}

TEST(BusTracker, SegmentObservationsMatchGroundTruth) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  for (const auto& report : reports) tracker.ingest(report.scan);

  const auto observed = tracker.drain_segments();
  EXPECT_EQ(observed.size(), tracker.completed_count());
  ASSERT_GE(observed.size(), 3u);
  for (const auto& obs : observed) {
    EXPECT_EQ(obs.route, f.city.route_a().id());
    // Ground-truth travel time for this edge.
    const auto idx = f.city.route_a().index_of_edge(obs.edge);
    ASSERT_TRUE(idx.has_value());
    double truth = -1.0;
    for (const auto& seg : trip.segments)
      if (seg.edge_index == *idx) truth = seg.travel_time();
    ASSERT_GT(truth, 0.0);
    // Interpolated boundary times (Fig. 5) are accurate to a scan
    // period or two.
    EXPECT_NEAR(obs.travel_time, truth, 40.0);
  }
}

TEST(BusTracker, DrainSegmentsIsIncremental) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  std::size_t drained_total = 0;
  for (const auto& report : reports) {
    tracker.ingest(report.scan);
    drained_total += tracker.drain_segments().size();
  }
  EXPECT_GT(drained_total, 0u);
  EXPECT_EQ(drained_total, tracker.completed_count());
  EXPECT_TRUE(tracker.drain_segments().empty());
}

TEST(BusTracker, CurrentOffsetAdvances) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  EXPECT_FALSE(tracker.current_offset().has_value());
  double prev = -1.0;
  std::size_t advances = 0;
  std::size_t updates = 0;
  for (const auto& report : reports) {
    if (!tracker.ingest(report.scan).has_value()) continue;
    const double offset = *tracker.current_offset();
    if (prev >= 0.0) {
      ++updates;
      if (offset >= prev - 61.0) ++advances;  // small back-corrections ok
    }
    prev = offset;
  }
  ASSERT_GT(updates, 0u);
  EXPECT_EQ(advances, updates);
}

TEST(BusTracker, RouteAccessor) {
  TrackerFixture f;
  BusTracker tracker(f.city.route_a(), f.positioner);
  EXPECT_EQ(&tracker.route(), &f.city.route_a());
}

// Malformed input reaching the raw tracker (i.e. bypassing IngestGuard)
// must never crash: the positioner sanitizes scans before building rank
// signatures, and the mobility filter coasts through unusable ones.
TEST(BusTracker, SurvivesMalformedScans) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  ASSERT_NO_THROW({
    // Establish a fix, then feed garbage.
    tracker.ingest(reports[0].scan);

    rf::WifiScan empty;
    empty.time = reports[0].scan.time + 5.0;
    tracker.ingest(empty);

    rf::WifiScan nans = reports[1].scan;
    for (auto& r : nans.readings) r.rssi_dbm = kNan;
    tracker.ingest(nans);

    rf::WifiScan dupes = reports[2].scan;
    dupes.readings.insert(dupes.readings.end(),
                          reports[2].scan.readings.begin(),
                          reports[2].scan.readings.end());
    tracker.ingest(dupes);  // every AP appears twice
  });
  // The clean scans still produced fixes.
  EXPECT_TRUE(tracker.current_offset().has_value());
}

TEST(BusTracker, DegradedFlagMarksCoastedFixes) {
  TrackerFixture f;
  const auto trip = f.trip();
  const auto reports = f.reports(trip);
  BusTracker tracker(f.city.route_a(), f.positioner);

  const auto first = tracker.ingest(reports[0].scan);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->degraded);

  // An empty scan forces a dead-reckoned (coasted) fix.
  rf::WifiScan empty;
  empty.time = reports[0].scan.time + 8.0;
  const auto coasted = tracker.ingest(empty);
  ASSERT_TRUE(coasted.has_value());
  EXPECT_TRUE(coasted->degraded);
  EXPECT_LT(coasted->confidence, first->confidence);

  // A genuine scan re-acquires a measurement-backed fix.
  const auto recovered = tracker.ingest(reports[1].scan);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_FALSE(recovered->degraded);
}

}  // namespace
}  // namespace wiloc::core
