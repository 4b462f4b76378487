// Unit coverage for the sharded concurrent ingest engine: serial
// equivalence, batched submission, backpressure, queue-ordered trip
// lifecycle, and orphan accounting.
#include "core/ingest_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "../helpers.hpp"
#include "core/server.hpp"
#include "sim/fault_injector.hpp"
#include "sim/traffic_model.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

bool same_fix(const Fix& a, const Fix& b) {
  return a.time == b.time && a.route_offset == b.route_offset &&
         a.confidence == b.confidence && a.degraded == b.degraded;
}

void expect_same_stats(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.fixes, b.fixes);
  EXPECT_EQ(a.degraded_fixes, b.degraded_fixes);
  EXPECT_EQ(a.rejected_by_reason, b.rejected_by_reason);
  EXPECT_EQ(a.readings_dropped_invalid, b.readings_dropped_invalid);
  EXPECT_EQ(a.readings_dropped_weak, b.readings_dropped_weak);
  EXPECT_EQ(a.readings_dropped_duplicate, b.readings_dropped_duplicate);
  EXPECT_EQ(a.readings_dropped_unknown_ap, b.readings_dropped_unknown_ap);
}

/// A faulted two-trip scan workload over the MiniCity.
struct Workload {
  testing::MiniCity city;
  std::vector<sim::ScanReport> trip_a;
  std::vector<sim::ScanReport> trip_b;

  explicit Workload(double fault_rate = 0.15) {
    const sim::TrafficModel traffic(9);
    Rng rng(41);
    const rf::Scanner scanner;
    const auto rec_a =
        sim::simulate_trip(TripId(1), city.route_a(), city.profiles[0],
                           traffic, at_day_time(0, hms(8)), rng);
    const auto rec_b =
        sim::simulate_trip(TripId(2), city.route_b(), city.profiles[1],
                           traffic, at_day_time(0, hms(8) + 60.0), rng);
    trip_a = sim::sense_trip(rec_a, city.route_a(), city.aps, city.model,
                             scanner, rng);
    trip_b = sim::sense_trip(rec_b, city.route_b(), city.aps, city.model,
                             scanner, rng);
    if (fault_rate > 0.0) {
      sim::FaultInjector inj_a(sim::FaultProfile::uniform(fault_rate), 5);
      sim::FaultInjector inj_b(sim::FaultProfile::uniform(fault_rate), 6);
      trip_a = inj_a.apply(trip_a);
      trip_b = inj_b.apply(trip_b);
    }
  }

  /// Round-robin interleave of both trips, as a shared uplink delivers.
  std::vector<ScanSubmission> interleaved() const {
    std::vector<ScanSubmission> out;
    const std::size_t n = std::max(trip_a.size(), trip_b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (i < trip_a.size()) out.push_back({TripId(1), trip_a[i].scan});
      if (i < trip_b.size()) out.push_back({TripId(2), trip_b[i].scan});
    }
    return out;
  }
};

ServerConfig engine_config(std::size_t workers,
                           std::size_t queue_capacity = 256,
                           bool block_on_full = true) {
  ServerConfig config;
  config.engine.workers = workers;
  config.engine.queue_capacity = queue_capacity;
  config.engine.block_on_full = block_on_full;
  return config;
}

TEST(IngestEngine, BatchOnSerialEngineMatchesPerScanIngest) {
  const Workload w;
  WiLocatorServer by_scan({&w.city.route_a(), &w.city.route_b()},
                          w.city.ap_snapshot(), w.city.model,
                          DaySlots::paper_five_slots(), engine_config(0));
  WiLocatorServer by_batch({&w.city.route_a(), &w.city.route_b()},
                           w.city.ap_snapshot(), w.city.model,
                           DaySlots::paper_five_slots(), engine_config(0));
  const auto submissions = w.interleaved();

  by_scan.begin_trip(TripId(1), w.city.route_a().id());
  by_scan.begin_trip(TripId(2), w.city.route_b().id());
  for (const auto& sub : submissions) by_scan.ingest(sub.trip, sub.scan);

  by_batch.begin_trip(TripId(1), w.city.route_a().id());
  by_batch.begin_trip(TripId(2), w.city.route_b().id());
  const auto result = by_batch.ingest_batch(submissions);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.enqueued, submissions.size());

  for (const TripId trip : {TripId(1), TripId(2)}) {
    by_scan.end_trip(trip);
    by_batch.end_trip(trip);
    expect_same_stats(by_scan.trip_ingest_stats(trip),
                      by_batch.trip_ingest_stats(trip));
    const auto& fa = by_scan.tracker(trip).fixes();
    const auto& fb = by_batch.tracker(trip).fixes();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
      EXPECT_TRUE(same_fix(fa[i], fb[i])) << "fix " << i;
  }
}

TEST(IngestEngine, ThreadedMatchesSerialAfterDrain) {
  const Workload w;
  WiLocatorServer serial({&w.city.route_a(), &w.city.route_b()},
                         w.city.ap_snapshot(), w.city.model,
                         DaySlots::paper_five_slots(), engine_config(0));
  WiLocatorServer threaded({&w.city.route_a(), &w.city.route_b()},
                           w.city.ap_snapshot(), w.city.model,
                           DaySlots::paper_five_slots(), engine_config(3));
  ASSERT_EQ(threaded.engine().shard_count(), 3u);
  const auto submissions = w.interleaved();

  for (auto* server : {&serial, &threaded}) {
    server->begin_trip(TripId(1), w.city.route_a().id());
    server->begin_trip(TripId(2), w.city.route_b().id());
  }
  for (const auto& sub : submissions) serial.ingest(sub.trip, sub.scan);
  // Feed the threaded engine in small batches to force queue churn.
  std::span<const ScanSubmission> rest(submissions);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(7, rest.size());
    EXPECT_TRUE(threaded.ingest_batch(rest.first(n)).complete());
    rest = rest.subspan(n);
  }
  threaded.drain();

  for (const TripId trip : {TripId(1), TripId(2)}) {
    serial.end_trip(trip);
    threaded.end_trip(trip);
    expect_same_stats(serial.trip_ingest_stats(trip),
                      threaded.trip_ingest_stats(trip));
    const auto& fa = serial.tracker(trip).fixes();
    const auto& fb = threaded.tracker(trip).fixes();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
      EXPECT_TRUE(same_fix(fa[i], fb[i])) << "fix " << i;
  }
  expect_same_stats(serial.ingest_stats(), threaded.ingest_stats());
}

TEST(IngestEngine, SyncIngestOnThreadedEngineReturnsPerScanResults) {
  const Workload w(0.0);
  WiLocatorServer serial({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(0));
  WiLocatorServer threaded({&w.city.route_a()}, w.city.ap_snapshot(),
                           w.city.model, DaySlots::paper_five_slots(),
                           engine_config(2));
  serial.begin_trip(TripId(1), w.city.route_a().id());
  threaded.begin_trip(TripId(1), w.city.route_a().id());
  for (const auto& report : w.trip_a) {
    const IngestResult a = serial.ingest(TripId(1), report.scan);
    const IngestResult b = threaded.ingest(TripId(1), report.scan);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.released, b.released);
    ASSERT_EQ(a.fix.has_value(), b.fix.has_value());
    if (a.fix.has_value()) {
      EXPECT_TRUE(same_fix(*a.fix, *b.fix));
    }
  }
}

TEST(IngestEngine, BackpressureRejectsOverflowWithoutLosingAccounting) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(1, /*queue_capacity=*/2,
                                       /*block_on_full=*/false));
  server.begin_trip(TripId(1), w.city.route_a().id());
  // A poison scan whose sanitization (millions of duplicate readings)
  // pins the single worker for tens of milliseconds, so the burst behind
  // it meets a full 2-slot queue even on a one-CPU machine where the
  // worker otherwise drains the queue between every two pushes.
  rf::WifiScan poison;
  poison.time = 1.0;
  poison.readings.assign(4'000'000, {rf::ApId(0), -50.0});
  std::vector<ScanSubmission> batch;
  batch.push_back({TripId(1), poison});
  for (const auto& report : w.trip_a)
    batch.push_back({TripId(1), report.scan});

  std::uint64_t rejected = 0;
  std::uint64_t enqueued = 0;
  for (int attempt = 0; attempt < 5 && rejected == 0; ++attempt) {
    const BatchIngestResult result = server.ingest_batch(batch);
    EXPECT_EQ(result.submitted, batch.size());
    EXPECT_EQ(result.enqueued + result.rejected_backpressure, batch.size());
    rejected += result.rejected_backpressure;
    enqueued += result.enqueued;
    server.drain();
  }
  EXPECT_GT(rejected, 0u);
  // Scans bounced at the queue never reached a guard; the ones that got
  // through are fully accounted.
  const IngestStats stats = server.ingest_stats();
  EXPECT_EQ(stats.submitted, enqueued);
  EXPECT_TRUE(stats.accounted());
}

TEST(IngestEngine, BlockingBackpressureIsLossless) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(1, /*queue_capacity=*/1,
                                       /*block_on_full=*/true));
  server.begin_trip(TripId(1), w.city.route_a().id());
  std::vector<ScanSubmission> batch;
  for (const auto& report : w.trip_a)
    batch.push_back({TripId(1), report.scan});
  const BatchIngestResult result = server.ingest_batch(batch);
  EXPECT_TRUE(result.complete());
  server.drain();
  EXPECT_EQ(server.ingest_stats().submitted, batch.size());
}

TEST(IngestEngine, EndTripIsOrderedAfterQueuedScans) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(2));
  server.begin_trip(TripId(1), w.city.route_a().id());
  std::vector<ScanSubmission> batch;
  for (const auto& report : w.trip_a)
    batch.push_back({TripId(1), report.scan});
  ASSERT_TRUE(server.ingest_batch(batch).complete());
  // end_trip rides the same shard queue: every scan above is processed
  // (while the trip is still open) before the close lands.
  server.end_trip(TripId(1));
  const IngestStats stats = server.trip_ingest_stats(TripId(1));
  EXPECT_EQ(stats.submitted, batch.size());
  EXPECT_EQ(stats.rejected(RejectReason::closed_trip), 0u);
  EXPECT_EQ(stats.deferred, 0u);
  // A scan after the close is rejected as closed_trip.
  const IngestResult late = server.ingest(TripId(1), w.trip_a[0].scan);
  EXPECT_EQ(late.status, IngestStatus::rejected);
  EXPECT_EQ(late.reason, RejectReason::closed_trip);
}

TEST(IngestEngine, BatchedOrphansLandInAggregateStats) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(2));
  server.begin_trip(TripId(1), w.city.route_a().id());
  std::vector<ScanSubmission> batch;
  for (std::size_t i = 0; i < 5; ++i)
    batch.push_back({TripId(777), w.trip_a[i % w.trip_a.size()].scan});
  ASSERT_TRUE(server.ingest_batch(batch).complete());
  server.drain();
  const IngestStats stats = server.ingest_stats();
  EXPECT_EQ(stats.rejected(RejectReason::unknown_trip), 5u);
  EXPECT_TRUE(stats.accounted());
}

TEST(IngestEngine, LifecycleErrorsSurfaceThroughTheQueue) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(2));
  server.begin_trip(TripId(1), w.city.route_a().id());
  EXPECT_THROW(server.begin_trip(TripId(1), w.city.route_a().id()),
               StateError);
  EXPECT_THROW(server.begin_trip(TripId(2), roadnet::RouteId(99)),
               NotFound);
  EXPECT_THROW(server.end_trip(TripId(42)), NotFound);
  EXPECT_THROW(server.flush_trip(TripId(42)), NotFound);
  EXPECT_TRUE(server.has_trip(TripId(1)));
  EXPECT_FALSE(server.has_trip(TripId(2)));
}

TEST(IngestEngine, LiveQueriesDuringConcurrentIngestDoNotThrow) {
  const Workload w;
  WiLocatorServer server({&w.city.route_a(), &w.city.route_b()},
                         w.city.ap_snapshot(), w.city.model,
                         DaySlots::paper_five_slots(), engine_config(4));
  server.begin_trip(TripId(1), w.city.route_a().id());
  server.begin_trip(TripId(2), w.city.route_b().id());
  const auto submissions = w.interleaved();
  std::span<const ScanSubmission> rest(submissions);
  ASSERT_NO_THROW({
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(16, rest.size());
      server.ingest_batch(rest.first(n));
      rest = rest.subspan(n);
      // Interleaved control-plane reads while the workers chew.
      server.position(TripId(1));
      server.anomalies(TripId(2));
      server.traffic_map(at_day_time(0, hms(9)));
      server.ingest_stats();
    }
  });
  server.drain();
  EXPECT_TRUE(server.ingest_stats().accounted());
}

TEST(IngestEngine, BatchedWorkerDrainMatchesOneAtATime) {
  // The worker's batched state-lock path must produce byte-identical
  // fixes and stats to both the serial inline engine and a threaded
  // engine forced to process one job per lock acquisition: with one
  // queue slot per shard a worker never finds more than one job to
  // drain. Exercises the locate memo + shared-scratch reuse across a
  // drained batch.
  const Workload w;
  const auto submissions = w.interleaved();

  ServerConfig serial_cfg = engine_config(0);
  ServerConfig one_at_a_time = engine_config(4, /*queue_capacity=*/1);
  ServerConfig batched = engine_config(4, /*queue_capacity=*/32);

  WiLocatorServer serial({&w.city.route_a(), &w.city.route_b()},
                         w.city.ap_snapshot(), w.city.model,
                         DaySlots::paper_five_slots(), serial_cfg);
  WiLocatorServer unbatched({&w.city.route_a(), &w.city.route_b()},
                            w.city.ap_snapshot(), w.city.model,
                            DaySlots::paper_five_slots(), one_at_a_time);
  WiLocatorServer wide({&w.city.route_a(), &w.city.route_b()},
                       w.city.ap_snapshot(), w.city.model,
                       DaySlots::paper_five_slots(), batched);

  for (auto* server : {&serial, &unbatched, &wide}) {
    server->begin_trip(TripId(1), w.city.route_a().id());
    server->begin_trip(TripId(2), w.city.route_b().id());
  }
  for (const auto& sub : submissions) serial.ingest(sub.trip, sub.scan);
  for (auto* server : {&unbatched, &wide}) {
    EXPECT_TRUE(server->ingest_batch(submissions).complete());
    server->drain();
  }

  for (const TripId trip : {TripId(1), TripId(2)}) {
    for (auto* server : {&serial, &unbatched, &wide}) server->end_trip(trip);
    expect_same_stats(serial.trip_ingest_stats(trip),
                      unbatched.trip_ingest_stats(trip));
    expect_same_stats(serial.trip_ingest_stats(trip),
                      wide.trip_ingest_stats(trip));
    const auto& fs = serial.tracker(trip).fixes();
    const auto& fu = unbatched.tracker(trip).fixes();
    const auto& fw = wide.tracker(trip).fixes();
    ASSERT_EQ(fs.size(), fu.size());
    ASSERT_EQ(fs.size(), fw.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      EXPECT_TRUE(same_fix(fs[i], fu[i])) << "unbatched fix " << i;
      EXPECT_TRUE(same_fix(fs[i], fw[i])) << "batched fix " << i;
    }
  }
  expect_same_stats(serial.ingest_stats(), unbatched.ingest_stats());
  expect_same_stats(serial.ingest_stats(), wide.ingest_stats());
}

}  // namespace
}  // namespace wiloc::core
