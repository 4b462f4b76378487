// Observability under load: the metrics snapshot must render the
// engine's own IngestStats after a faulted 10k-scan concurrent workload
// and at every scrape during it, and tracing must produce a coherent
// span stream for a clean trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../chaos_schedule.hpp"
#include "../helpers.hpp"
#include "core/server.hpp"
#include "net/service.hpp"
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

  // The ingest.* metrics are rendered from the aggregate IngestStats.
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
  // The faulted stream exercised the reorder path; the deferred gauge
  // is the reorder-buffer occupancy, empty once every trip ended.
  EXPECT_GT(snap.counter("ingest.reordered"), 0u);
  EXPECT_EQ(snap.gauges.count("ingest.deferred"), 1u);
  EXPECT_EQ(snap.gauge("ingest.deferred"), 0.0);

  // Engine-level accounting: every enqueued scan reached a guard, and
  // the drained engine's observations were published to the store.
  EXPECT_EQ(snap.counter("engine.enqueued"), stats.submitted);
  EXPECT_GT(snap.counter("server.observations_published"), 0u);

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
  EXPECT_EQ(n_observe, server.metrics_snapshot().counter(
                           "server.observations_published"));
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
  obs::Reporter reporter([&server] { return server.metrics_snapshot(); }, out,
                         {.period_s = 30.0});

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

TEST(Observability, MetricsScrapeDuringIngest) {
  // Every scrape renders one IngestStats sum, so the accounting
  // invariant holds mid-stream too: a second thread scrapes while two
  // workers process chaos-schedule batches.
  const testing::ChaosSchedule schedule(4242, 10000);
  ServerConfig config;
  config.engine.workers = 2;
  auto owned = schedule.make_server(config);
  WiLocatorServer& server = *owned;
  schedule.train(server);

  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  std::size_t buffered_scrapes = 0;  // scrapes that saw deferred scans
  std::string first_failure;
  std::thread scraper([&] {
    std::uint64_t last_submitted = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = server.metrics_snapshot();
      std::uint64_t rejected = 0;
      for (std::size_t r = 1; r < kRejectReasonCount; ++r)
        rejected += snap.counter(std::string("ingest.rejected.") +
                                 to_string(static_cast<RejectReason>(r)));
      const auto deferred =
          static_cast<std::uint64_t>(snap.gauge("ingest.deferred"));
      const std::uint64_t submitted = snap.counter("ingest.submitted");
      const std::uint64_t accepted = snap.counter("ingest.accepted");
      if (first_failure.empty() &&
          (submitted != accepted + rejected + deferred ||
           submitted < last_submitted))
        first_failure = "scrape " + std::to_string(scrapes) +
                        ": submitted " + std::to_string(submitted) +
                        " (previous " + std::to_string(last_submitted) +
                        "), accepted " + std::to_string(accepted) +
                        ", rejected " + std::to_string(rejected) +
                        ", deferred " + std::to_string(deferred);
      last_submitted = submitted;
      ++scrapes;
      if (deferred > 0) ++buffered_scrapes;
    }
  });
  for (const testing::ChaosRound& round : schedule.rounds)
    testing::apply_batched(server, round, schedule.batch_size);
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_TRUE(first_failure.empty()) << first_failure;
  EXPECT_GT(scrapes, 0u);
  // Some scrapes landed mid-stream, with scans in reorder buffers.
  EXPECT_GT(buffered_scrapes, 0u);
  // Quiescent, a scrape is exactly ingest_stats().
  const IngestStats stats = server.ingest_stats();
  const obs::Snapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.counter("ingest.submitted"), stats.submitted);
  EXPECT_EQ(snap.counter("ingest.accepted"), stats.accepted);
  EXPECT_EQ(snap.gauge("ingest.deferred"),
            static_cast<double>(stats.deferred));
}

TEST(Observability, ServiceStopDrainsEngineBeforeFinalReporterLine) {
  // The final reporter line must account for the complete stream, even
  // scans still queued at the async engine when the service stops:
  // stop() drains before it flushes the reporter.
  const testing::ChaosSchedule schedule(3, 10000);
  ServerConfig config;
  config.engine.workers = 2;  // async path; persistence stays off
  config.engine.queue_capacity = 1 << 16;  // the whole batch queues
  auto server = schedule.make_server(config);
  std::ostringstream out;
  obs::Reporter reporter([&server] { return server->metrics_snapshot(); },
                         out, {.period_s = 1e9});
  net::ServiceOptions options;
  options.reporter = &reporter;
  net::WiLocatorService service(*server, options);
  service.start();

  // Every round's trips begin and all their scans go out as one batch;
  // no trip ends, so nothing drains before stop().
  std::vector<ScanSubmission> batch;
  for (const testing::ChaosRound& round : schedule.rounds)
    for (const testing::ChaosOp& op : round) {
      if (op.kind == testing::ChaosOp::Kind::begin)
        server->begin_trip(op.trip, op.route);
      else if (op.kind == testing::ChaosOp::Kind::scan)
        batch.push_back({op.trip, op.scan});
    }
  // Like the serve loop: the first tick reports, a later one within the
  // period only opens the window the final line flushes.
  reporter.maybe_report(0.0);
  const std::size_t submitted = server->ingest_batch(batch).enqueued;
  reporter.maybe_report(1.0);
  ASSERT_GT(submitted, 0u);
  service.stop();  // no drain before this: stop() owns the ordering

  std::vector<std::string> lines;
  std::istringstream stream(out.str());
  for (std::string line; std::getline(stream, line);)
    if (!line.empty()) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << out.str();
  const std::string& last_line = lines.back();
  const auto value_of = [&](const std::string& key) -> std::uint64_t {
    const std::string needle = "\"" + key + "\":";
    const auto pos = last_line.find(needle);
    if (pos == std::string::npos) return 0;
    return std::stoull(last_line.substr(pos + needle.size()));
  };
  EXPECT_EQ(value_of("engine.enqueued"), submitted) << last_line;
  EXPECT_EQ(value_of("ingest.submitted"), submitted) << last_line;
  // The drain also published what the workers harvested: a later drain
  // finds nothing left to publish.
  server->drain();
  const std::uint64_t published =
      server->metrics_snapshot().counter("server.observations_published");
  EXPECT_GT(published, 0u);
  EXPECT_EQ(value_of("server.observations_published"), published)
      << last_line;
}

}  // namespace
}  // namespace wiloc::core
