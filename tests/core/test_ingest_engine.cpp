// Unit coverage for the sharded concurrent ingest engine: serial
// equivalence, batched submission, blocking backpressure, the inline
// trip lifecycle's ordering against queued scans, and orphan accounting.
#include "core/ingest_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
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

  explicit Workload(double fault_rate = 0.15, double scan_period_s = 10.0) {
    const sim::TrafficModel traffic(9);
    sim::CrowdParams crowd;
    crowd.scan_period_s = scan_period_s;
    Rng rng(41);
    const rf::Scanner scanner;
    const auto rec_a =
        sim::simulate_trip(TripId(1), city.route_a(), city.profiles[0],
                           traffic, at_day_time(0, hms(8)), rng);
    const auto rec_b =
        sim::simulate_trip(TripId(2), city.route_b(), city.profiles[1],
                           traffic, at_day_time(0, hms(8) + 60.0), rng);
    trip_a = sim::sense_trip(rec_a, city.route_a(), city.aps, city.model,
                             scanner, rng, crowd);
    trip_b = sim::sense_trip(rec_b, city.route_b(), city.aps, city.model,
                             scanner, rng, crowd);
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
                           std::size_t queue_capacity = 256) {
  ServerConfig config;
  config.engine.workers = workers;
  config.engine.queue_capacity = queue_capacity;
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
  EXPECT_EQ(result.submitted, submissions.size());
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
    EXPECT_EQ(threaded.ingest_batch(rest.first(n)).enqueued, n);
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

TEST(IngestEngine, BlockingBackpressureIsLossless) {
  const Workload w(0.0);
  WiLocatorServer server({&w.city.route_a()}, w.city.ap_snapshot(),
                         w.city.model, DaySlots::paper_five_slots(),
                         engine_config(1, /*queue_capacity=*/1));
  server.begin_trip(TripId(1), w.city.route_a().id());
  std::vector<ScanSubmission> batch;
  for (const auto& report : w.trip_a)
    batch.push_back({TripId(1), report.scan});
  const BatchIngestResult result = server.ingest_batch(batch);
  EXPECT_EQ(result.enqueued, batch.size());
  server.drain();
  EXPECT_EQ(server.ingest_stats().submitted, batch.size());
}

/// Every trip-control ordering against queued scans, on one server:
/// flush_trip and end_trip after a trip's queued scans, and begin_trip
/// after scans queued for a trip it has not yet registered. Each batch
/// opens with a poison scan (hundreds of thousands of duplicate readings
/// to sanitize) that pins the shard's worker, so every control op is
/// issued while scans are still queued behind it.
struct OrderingRun {
  IngestStats after_flush;     ///< trip 1, right after flush_trip
  IngestStats trip2_at_begin;  ///< trip 2, right after begin_trip
  IngestStats after_end;       ///< trip 1, right after end_trip
  IngestResult late;           ///< a trip-1 scan after end_trip
  /// Server-wide unknown_trip rejections right after begin_trip(2).
  std::uint64_t unknown_at_begin = 0;
  std::size_t first_half = 0;  ///< trip-1 submissions before the flush
  std::size_t trip1_total = 0;
  std::size_t queued_for_2 = 0;
};

OrderingRun run_control_ordering(const Workload& w, std::size_t workers) {
  WiLocatorServer server({&w.city.route_a(), &w.city.route_b()},
                         w.city.ap_snapshot(), w.city.model,
                         DaySlots::paper_five_slots(), engine_config(workers));
  rf::WifiScan poison;
  poison.time = 1.0;
  poison.readings.assign(300'000, {rf::ApId(0), -50.0});
  // Repeats the scan range until more scans queue behind the poison
  // than a worker drains per state-lock acquisition (128); the repeats
  // are rejected as duplicate or stale, identically in every mode.
  const auto with_poison = [&](TripId trip,
                               const std::vector<sim::ScanReport>& scans,
                               std::size_t from, std::size_t to) {
    std::vector<ScanSubmission> batch{{TripId(1), poison}};
    while (batch.size() <= 256)
      for (std::size_t i = from; i < to; ++i)
        batch.push_back({trip, scans[i].scan});
    return batch;
  };
  OrderingRun run;
  server.begin_trip(TripId(1), w.city.route_a().id());
  const std::size_t half = w.trip_a.size() / 2;

  const auto first = with_poison(TripId(1), w.trip_a, 0, half);
  EXPECT_EQ(server.ingest_batch(first).enqueued, first.size());
  server.flush_trip(TripId(1));
  run.after_flush = server.trip_ingest_stats(TripId(1));
  run.first_half = first.size();

  const auto early = with_poison(TripId(2), w.trip_b, 0, w.trip_b.size());
  EXPECT_EQ(server.ingest_batch(early).enqueued, early.size());
  server.begin_trip(TripId(2), w.city.route_b().id());
  // Server-wide: trip 2's scans are all that can be unknown_trip. (The
  // rest of the aggregate may still move: trip 1's shard is not drained.)
  run.unknown_at_begin =
      server.ingest_stats().rejected(RejectReason::unknown_trip);
  run.trip2_at_begin = server.trip_ingest_stats(TripId(2));
  run.queued_for_2 = early.size() - 1;

  const auto rest = with_poison(TripId(1), w.trip_a, half, w.trip_a.size());
  EXPECT_EQ(server.ingest_batch(rest).enqueued, rest.size());
  server.end_trip(TripId(1));
  run.after_end = server.trip_ingest_stats(TripId(1));
  run.trip1_total = first.size() + 1 + rest.size();
  run.late = server.ingest(TripId(1), w.trip_a[0].scan);
  return run;
}

TEST(IngestEngine, EndTripIsOrderedAfterQueuedScans) {
  // Trip control runs inline only after the trip's shard drains, so
  // every op lands exactly where the serial call sequence puts it.
  const Workload w(0.0);
  const OrderingRun serial = run_control_ordering(w, 0);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const OrderingRun run = run_control_ordering(w, workers);

    // flush_trip after queued scans: every one reached the guard and
    // the reorder buffer is empty.
    EXPECT_EQ(run.after_flush.submitted, run.first_half);
    EXPECT_EQ(run.after_flush.deferred, 0u);
    expect_same_stats(run.after_flush, serial.after_flush);

    // Scans queued for a trip before its begin_trip are rejected
    // unknown_trip, and the new trip starts with nothing submitted.
    EXPECT_EQ(run.unknown_at_begin, run.queued_for_2);
    EXPECT_EQ(serial.unknown_at_begin, run.queued_for_2);
    EXPECT_EQ(run.trip2_at_begin.submitted, 0u);

    // end_trip after queued scans: every scan above is processed (while
    // the trip is still open) before the close lands.
    EXPECT_EQ(run.after_end.submitted, run.trip1_total);
    EXPECT_EQ(run.after_end.rejected(RejectReason::closed_trip), 0u);
    EXPECT_EQ(run.after_end.deferred, 0u);
    expect_same_stats(run.after_end, serial.after_end);

    // A scan after the close is rejected as closed_trip.
    EXPECT_EQ(run.late.status, IngestStatus::rejected);
    EXPECT_EQ(run.late.reason, RejectReason::closed_trip);
  }
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
  ASSERT_EQ(server.ingest_batch(batch).enqueued, batch.size());
  server.drain();
  const IngestStats stats = server.ingest_stats();
  EXPECT_EQ(stats.rejected(RejectReason::unknown_trip), 5u);
  EXPECT_TRUE(stats.accounted());
}

TEST(IngestEngine, LifecycleErrorsThrowFromTheInlinePath) {
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
    EXPECT_EQ(server->ingest_batch(submissions).enqueued, submissions.size());
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

TEST(IngestEngine, TripStateHeapBytesPerFixWorkBudget) {
  // A trip's resident state is its fix log (24 B per fix in 64-fix
  // chunks) and its guard's reorder buffer; drained segment observations
  // belong to the store alone. /metrics sums these owners in the same
  // per-shard pass that totals IngestStats. Scans every second give
  // each trip a few hundred fixes, several chunks.
  const Workload w(0.15, 1.0);
  WiLocatorServer server({&w.city.route_a(), &w.city.route_b()},
                         w.city.ap_snapshot(), w.city.model,
                         DaySlots::paper_five_slots(), engine_config(2));
  server.begin_trip(TripId(1), w.city.route_a().id());
  server.begin_trip(TripId(2), w.city.route_b().id());
  const auto submissions = w.interleaved();
  server.ingest_batch(submissions);
  server.drain();  // mid-trip: the guards still buffer scans

  constexpr std::size_t kChunkBytes =
      FixLog::kChunk * 3 * sizeof(double) + sizeof(std::uint64_t);
  std::size_t owners = 0;
  std::size_t buffered = 0;
  for (const TripId trip : {TripId(1), TripId(2)}) {
    const BusTracker& tracker = server.engine().tracker(trip);
    const IngestGuard& guard = server.engine().guard(trip);
    const std::size_t n = tracker.fixes().size();
    ASSERT_GE(n, 150u) << "trip " << trip.value();
    EXPECT_GT(tracker.completed_count(), 0u);
    // Every completed segment went to the store: the tracker holds only
    // its fixes.
    EXPECT_EQ(tracker.heap_bytes(), tracker.fixes().heap_bytes());
    const std::size_t chunks = (n + FixLog::kChunk - 1) / FixLog::kChunk;
    EXPECT_LE(tracker.heap_bytes(),
              n * 3 * sizeof(double) + chunks * sizeof(std::uint64_t) +
                  kChunkBytes + 2 * chunks * sizeof(void*))
        << "trip " << trip.value() << ", " << n << " fixes";
    owners += tracker.heap_bytes() + guard.heap_bytes();
    buffered += guard.buffered();
  }
  EXPECT_GT(buffered, 0u);
  EXPECT_EQ(server.metrics_snapshot().gauge("mem.trip_state_bytes"),
            static_cast<double>(owners));
}

}  // namespace
}  // namespace wiloc::core
