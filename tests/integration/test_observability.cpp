// Observability under load: the metrics registry must reconcile with the
// engine's own IngestStats after a faulted 10k-scan concurrent workload,
// and tracing must produce a coherent span stream for a clean trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../chaos_schedule.hpp"
#include "../helpers.hpp"
#include "core/server.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

TEST(Observability, ChaosWorkloadReconcilesWithIngestStats) {
  const testing::ChaosSchedule schedule(4242, 10000);
  ServerConfig config;
  config.engine.workers = 2;
  config.engine.record_latency = true;
  auto owned = schedule.make_server(config);
  WiLocatorServer& server = *owned;
  schedule.train(server);
  // Submitted through the high-throughput batched path.
  for (const testing::ChaosRound& round : schedule.rounds)
    testing::apply_batched(server, round, schedule.batch_size);

  const IngestStats stats = server.ingest_stats();
  ASSERT_GE(stats.submitted, 10000u);
  ASSERT_TRUE(stats.accounted());
  ASSERT_EQ(stats.deferred, 0u);  // every trip ended (flushed)

  const obs::Snapshot snap = server.metrics_snapshot();
  ASSERT_FALSE(snap.empty());

  // The shared ingest.* counters aggregate exactly what total_stats()
  // sums (the engine is idle, so both views are quiescent).
  EXPECT_EQ(snap.counter("ingest.submitted"), stats.submitted);
  EXPECT_EQ(snap.counter("ingest.accepted"), stats.accepted);
  EXPECT_EQ(snap.counter("ingest.reordered"), stats.reordered);
  EXPECT_EQ(snap.counter("ingest.fixes"), stats.fixes);
  EXPECT_EQ(snap.counter("ingest.degraded_fixes"), stats.degraded_fixes);
  for (std::size_t r = 1; r < kRejectReasonCount; ++r) {
    const auto reason = static_cast<RejectReason>(r);
    EXPECT_EQ(snap.counter(std::string("ingest.rejected.") +
                           to_string(reason)),
              stats.rejected(reason))
        << to_string(reason);
  }
  EXPECT_EQ(snap.counter("ingest.readings_dropped.invalid"),
            stats.readings_dropped_invalid);
  EXPECT_EQ(snap.counter("ingest.readings_dropped.weak"),
            stats.readings_dropped_weak);
  EXPECT_EQ(snap.counter("ingest.readings_dropped.duplicate"),
            stats.readings_dropped_duplicate);
  EXPECT_EQ(snap.counter("ingest.readings_dropped.unknown_ap"),
            stats.readings_dropped_unknown_ap);
  // The faulted stream exercised the defer path; the obs counter is
  // monotonic over defer events while the stats field tracks occupancy.
  EXPECT_GT(snap.counter("ingest.deferred"), 0u);

  // Engine-level accounting: every submitted scan was enqueued and
  // processed; harvested observations all reached the store.
  EXPECT_EQ(snap.counter("engine.enqueued"), stats.submitted);
  EXPECT_EQ(snap.counter("engine.processed"), stats.submitted);
  EXPECT_GT(snap.counter("engine.observations"), 0u);
  EXPECT_EQ(snap.counter("server.observations_published"),
            snap.counter("engine.observations"));

  // Locate instrumentation saw the accepted scans.
  EXPECT_GT(snap.counter("locate.fast_path_hits") +
                snap.counter("locate.fallback_hits") +
                snap.counter("locate.misses"),
            0u);
  // Work budgets (servebench core.accepted_ratio and
  // svd.fast_path_ratio), pinned at their seeded values on this
  // workload: 8555 of 10049 enqueued scans accepted, 5790 of 8220
  // locates answered by the exact-signature fast path.
  const auto count = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  EXPECT_GE(count("ingest.accepted") / count("engine.enqueued"),
            8555.0 / 10049.0);
  const double locates = count("locate.fast_path_hits") +
                         count("locate.fallback_hits") + count("locate.misses");
  EXPECT_GE(count("locate.fast_path_hits") / locates, 5790.0 / 8220.0);
  const obs::HistogramSnapshot* candidates = snap.histogram("locate.candidates");
  ASSERT_NE(candidates, nullptr);
  EXPECT_GT(candidates->total, 0u);

  // Threaded-mode histograms were sampled.
  const obs::HistogramSnapshot* depth = snap.histogram("engine.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->total, 0u);
  const obs::HistogramSnapshot* latency = snap.histogram("engine.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->total, 0u);
}

TEST(Observability, TracingRecordsCoherentSpans) {
  testing::MiniCity city;
  sim::TrafficModel traffic(7);
  ServerConfig config;
  config.tracing = true;
  WiLocatorServer server({&city.route_a()}, city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots(), config);

  Rng rng(11);
  const auto record = sim::simulate_trip(TripId(1), city.route_a(),
                                         city.profiles[0], traffic,
                                         at_day_time(2, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(record, city.route_a(), city.aps,
                                       city.model, scanner, rng);

  server.begin_trip(TripId(1), city.route_a().id());
  for (const auto& report : reports) server.ingest(TripId(1), report.scan);
  server.end_trip(TripId(1));

  const std::vector<obs::TraceEvent> events = server.take_trace_events();
  ASSERT_FALSE(events.empty());

  std::size_t n_ingest = 0, n_locate = 0, n_fix = 0, n_observe = 0,
              n_release = 0;
  std::set<std::uint64_t> ingest_ids;
  for (const obs::TraceEvent& e : events) {
    switch (e.stage) {
      case obs::TraceStage::ingest:
        ++n_ingest;
        ingest_ids.insert(e.id);
        break;
      case obs::TraceStage::locate: ++n_locate; break;
      case obs::TraceStage::fix: ++n_fix; break;
      case obs::TraceStage::observe: ++n_observe; break;
      case obs::TraceStage::release: ++n_release; break;
    }
  }
  const IngestStats stats = server.ingest_stats();
  // One ingest span per submitted scan, each with a distinct sequence id.
  EXPECT_EQ(n_ingest, stats.submitted);
  EXPECT_EQ(ingest_ids.size(), stats.submitted);
  EXPECT_GT(n_locate, 0u);
  EXPECT_GT(n_fix, 0u);
  // Every harvested observation was order-finalized and released.
  EXPECT_EQ(n_observe, n_release);
  EXPECT_EQ(n_observe,
            server.metrics_snapshot().counter("engine.observations"));
  // Non-ingest events belong to spans that started with an ingest event.
  for (const obs::TraceEvent& e : events) {
    if (e.stage == obs::TraceStage::locate ||
        e.stage == obs::TraceStage::fix) {
      EXPECT_TRUE(ingest_ids.count(e.id)) << e.id;
    }
  }

  // The ring was drained; with tracing toggled off nothing is recorded.
  EXPECT_TRUE(server.take_trace_events().empty());
  server.set_tracing(false);
  server.begin_trip(TripId(2), city.route_a().id());
  server.ingest(TripId(2), reports.front().scan);
  EXPECT_TRUE(server.take_trace_events().empty());
}

TEST(Observability, TraceWallStampsFollowEachScansStages) {
  testing::MiniCity city;
  sim::TrafficModel traffic(7);
  ServerConfig config;
  config.tracing = true;
  WiLocatorServer server({&city.route_a()}, city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots(), config);

  Rng rng(11);
  const auto record = sim::simulate_trip(TripId(1), city.route_a(),
                                         city.profiles[0], traffic,
                                         at_day_time(2, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(record, city.route_a(), city.aps,
                                       city.model, scanner, rng);
  server.begin_trip(TripId(1), city.route_a().id());
  for (const auto& report : reports) server.ingest(TripId(1), report.scan);
  server.end_trip(TripId(1));

  // Per scan id, the wall clock never runs backwards from one stage to
  // the next.
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> by_id;
  for (const obs::TraceEvent& e : server.take_trace_events())
    by_id[e.id].push_back(e);
  ASSERT_FALSE(by_id.empty());
  std::size_t multi_stage = 0;
  for (auto& [id, events] : by_id) {
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.stage < b.stage;
                     });
    if (events.size() > 1) ++multi_stage;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_GT(events[i].wall_ns, 0) << id;
      if (i > 0) {
        EXPECT_GE(events[i].wall_ns, events[i - 1].wall_ns) << id;
      }
    }
  }
  EXPECT_GT(multi_stage, 0u);
}

TEST(Observability, ReporterStreamsServerMetrics) {
  testing::MiniCity city;
  sim::TrafficModel traffic(3);
  WiLocatorServer server({&city.route_a()}, city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots());

  std::ostringstream out;
  obs::Reporter reporter(server.metrics_registry(), out, {.period_s = 30.0});

  Rng rng(9);
  const auto record = sim::simulate_trip(TripId(5), city.route_a(),
                                         city.profiles[0], traffic,
                                         at_day_time(1, hms(8)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(record, city.route_a(), city.aps,
                                       city.model, scanner, rng);

  server.begin_trip(TripId(5), city.route_a().id());
  double now = at_day_time(1, hms(8));
  for (const auto& report : reports) {
    server.ingest(TripId(5), report.scan);
    now = report.scan.time;
    reporter.maybe_report(now);
  }
  server.end_trip(TripId(5));
  reporter.report(now);

  EXPECT_GE(reporter.reports(), 2u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"ingest.submitted\":"), std::string::npos) << line;
  }
  EXPECT_EQ(n, reporter.reports());
}

TEST(Observability, DestructorDrainsEngineBeforeFinalReporterLine) {
  // Regression: the final reporter line used to be able to race ahead of
  // the async engine, under-counting scans that were still queued when
  // the server shut down. The destructor must drain first — including
  // when persistence is disabled — so the last line accounts for the
  // complete stream.
  const testing::ChaosSchedule schedule(3, 1);  // one round
  std::ostringstream out;
  std::size_t submitted = 0;
  {
    ServerConfig config;
    config.engine.workers = 2;  // async path; persistence stays off
    auto server = schedule.make_server(config);
    obs::Reporter reporter(server->metrics_registry(), out,
                           {.period_s = 1e9});
    server->attach_reporter(&reporter);

    // The round's trips begin and its scans go out as one batch; no
    // trip ends, so nothing drains before the destructor.
    std::vector<ScanSubmission> batch;
    for (const testing::ChaosOp& op : schedule.rounds.front()) {
      if (op.kind == testing::ChaosOp::Kind::begin)
        server->begin_trip(op.trip, op.route);
      else if (op.kind == testing::ChaosOp::Kind::scan)
        batch.push_back({op.trip, op.scan});
    }
    submitted = server->ingest_batch(batch).enqueued;
    reporter.maybe_report(batch.back().scan.time);
    // No drain here: the destructor owns the ordering under test.
    server.reset();  // dtor drains, then writes the final reporter line
    // The reporter's own destructor flush (after the server already
    // flushed) must stay silent — covered by the line count below.
  }
  ASSERT_GT(submitted, 0u);

  std::string last_line;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);)
    if (!line.empty()) last_line = line;
  const auto value_of = [&](const std::string& key) -> std::uint64_t {
    const std::string needle = "\"" + key + "\":";
    const auto pos = last_line.find(needle);
    if (pos == std::string::npos) return 0;
    return std::stoull(last_line.substr(pos + needle.size()));
  };
  EXPECT_EQ(value_of("engine.enqueued"), submitted) << last_line;
  EXPECT_EQ(value_of("engine.processed"), submitted) << last_line;
}

}  // namespace
}  // namespace wiloc::core
