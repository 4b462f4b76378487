#include "util/obs.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "util/contracts.hpp"

namespace wiloc::obs {
namespace {

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings, no trailing garbage. Catches the classic serializer bugs
/// (dangling comma handling is covered by exact-string tests below).
bool balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{';
}

TEST(ObsCounter, IncrementAndExchange) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(c.exchange_zero(), 5u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(ObsHistogram, BinsAndClamping) {
  HistogramMetric h(0.0, 10.0, 5);
  h.record(1.0);    // bin 0
  h.record(9.9);    // bin 4
  h.record(-50.0);  // clamped into bin 0
  h.record(50.0);   // clamped into bin 4
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.total, 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[4], 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0 + 9.9 - 50.0 + 50.0);
}

TEST(ObsHistogram, IgnoresNonFinite) {
  HistogramMetric h(0.0, 1.0, 2);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
}

TEST(ObsHistogram, MeanAndQuantiles) {
  HistogramMetric h(0.0, 100.0, 10);
  for (int i = 0; i < 99; ++i) h.record(5.0);  // bin 0, center 5
  h.record(95.0);                              // bin 9, center 95
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_NEAR(snap.mean(), (99.0 * 5.0 + 95.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 95.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, SnapshotAndResetZeroes) {
  HistogramMetric h(0.0, 1.0, 2);
  h.record(0.25);
  EXPECT_EQ(h.snapshot_and_reset().total, 1u);
  EXPECT_EQ(h.snapshot().total, 0u);
}

TEST(ObsRegistry, HandlesAreStableAndShared) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.snapshot().counter("x"), 1u);
  HistogramMetric& h1 = reg.histogram("h", 0.0, 1.0, 4);
  EXPECT_EQ(&h1, &reg.histogram("h", 0.0, 1.0, 4));
  EXPECT_THROW(reg.histogram("h", 0.0, 2.0, 4), ContractViolation);
  EXPECT_THROW(reg.histogram("bad", 1.0, 0.0, 4), ContractViolation);
}

TEST(ObsRegistry, SnapshotIsPointInTime) {
  Registry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.histogram("h", 0.0, 10.0, 5).record(3.0);
  const Snapshot snap = reg.snapshot();
  reg.counter("c").inc();  // must not affect the copy
  EXPECT_EQ(snap.counter("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 2.5);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->total, 1u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(ObsRegistry, SnapshotAndResetIsDelta) {
  Registry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.0);
  EXPECT_EQ(reg.snapshot_and_reset().counter("c"), 3u);
  const Snapshot after = reg.snapshot();
  EXPECT_EQ(after.counter("c"), 0u);
  // Gauges are instantaneous and survive the reset.
  EXPECT_DOUBLE_EQ(after.gauge("g"), 1.0);
}

TEST(ObsRegistry, ConcurrentIncrementsAreLossless) {
  Registry reg;
  Counter& c = reg.counter("hits");
  HistogramMetric& h = reg.histogram("lat", 0.0, 100.0, 10);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<double>((t * 31 + i) % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.total(), kThreads * kPerThread);
}

TEST(ObsSnapshot, JsonShape) {
  Registry reg;
  reg.counter("a.b").inc(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", 0.0, 2.0, 2).record(0.5);
  const std::string json = reg.snapshot().json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"counters\":{\"a.b\":2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counts\":[1,0]"), std::string::npos) << json;
}

TEST(ObsSnapshot, JsonEscapesAndEmpty) {
  Registry reg;
  reg.counter("we\"ird\\name").inc();
  const std::string json = reg.snapshot().json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos) << json;
  EXPECT_EQ(Snapshot{}.json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(ObsTracer, DisabledRecordIsNoop) {
  Tracer tracer(4);
  tracer.record({1, 0, TraceStage::ingest, 0.0});
  EXPECT_TRUE(tracer.take().empty());
}

TEST(ObsTracer, RingDropsOldest) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  for (std::uint64_t i = 0; i < 5; ++i)
    tracer.record({i, 0, TraceStage::ingest, static_cast<double>(i)});
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<TraceEvent> events = tracer.take();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().id, 2u);
  EXPECT_EQ(events.back().id, 4u);
  EXPECT_TRUE(tracer.take().empty());  // drained
}

TEST(ObsTracer, RecordStampsMonotonicWallClock) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  for (std::size_t s = 0; s < kTraceStageCount; ++s)
    tracer.record({7, 1, static_cast<TraceStage>(s), 100.0});
  const std::vector<TraceEvent> events = tracer.take();
  ASSERT_EQ(events.size(), kTraceStageCount);
  EXPECT_GT(events.front().wall_ns, 0);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].wall_ns, events[i - 1].wall_ns) << i;
}

TEST(ObsTracer, StageNames) {
  EXPECT_STREQ(to_string(TraceStage::ingest), "ingest");
  EXPECT_STREQ(to_string(TraceStage::locate), "locate");
  EXPECT_STREQ(to_string(TraceStage::fix), "fix");
  EXPECT_STREQ(to_string(TraceStage::observe), "observe");
  EXPECT_STREQ(to_string(TraceStage::release), "release");
}

TEST(ObsReporter, PeriodGating) {
  Registry reg;
  reg.counter("c").inc();
  std::ostringstream out;
  Reporter reporter(reg, out, {.period_s = 10.0});
  EXPECT_TRUE(reporter.maybe_report(100.0));   // first call always reports
  EXPECT_FALSE(reporter.maybe_report(105.0));  // within the period
  EXPECT_TRUE(reporter.maybe_report(110.0));
  EXPECT_EQ(reporter.reports(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(balanced_json(line)) << line;
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"snapshot\":{"), std::string::npos) << line;
  }
  EXPECT_EQ(n, 2u);
}

TEST(ObsReporter, FlushFinalEmitsSuppressedWindow) {
  Registry reg;
  std::ostringstream out;
  Reporter reporter(reg, out, {.period_s = 10.0});
  reporter.maybe_report(100.0);          // first call reports
  reg.counter("late").inc();
  EXPECT_FALSE(reporter.maybe_report(104.0));  // suppressed window
  reporter.flush_final();
  EXPECT_EQ(reporter.reports(), 2u);
  // The final line is stamped with the newest time seen, not the period.
  EXPECT_NE(out.str().find("{\"t\":104"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"late\":1"), std::string::npos) << out.str();
  // Idempotent: nothing new since the flush.
  reporter.flush_final();
  EXPECT_EQ(reporter.reports(), 2u);
}

TEST(ObsReporter, FlushFinalWithoutActivityIsSilent) {
  Registry reg;
  std::ostringstream out;
  {
    Reporter reporter(reg, out, {.period_s = 1.0});
    reporter.flush_final();  // no maybe_report ever happened
  }                          // destructor flush is silent too
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(ObsReporter, DestructorFlushesLastWindow) {
  Registry reg;
  std::ostringstream out;
  {
    Reporter reporter(reg, out, {.period_s = 1e9});
    reporter.maybe_report(10.0);
    reg.counter("teardown").inc(3);
    reporter.maybe_report(20.0);  // suppressed by the huge period
  }
  // Two lines: the initial report and the destructor's final flush.
  EXPECT_NE(out.str().find("{\"t\":20"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"teardown\":3"), std::string::npos) << out.str();
}

TEST(ObsReporter, ResetEachEmitsDeltas) {
  Registry reg;
  std::ostringstream out;
  Reporter reporter(reg, out, {.period_s = 0.0, .reset_each = true});
  reg.counter("c").inc(5);
  reporter.report(1.0);
  reporter.report(2.0);  // counter was zeroed by the first report
  const std::string text = out.str();
  EXPECT_NE(text.find("\"c\":5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"c\":0"), std::string::npos) << text;
}

TEST(ObsPrometheus, CountersAndGauges) {
  Registry reg;
  reg.counter("ingest.submitted").inc(7);
  reg.gauge("service.ready").set(1.0);
  const std::string text = reg.snapshot().prometheus();
  // Dots sanitize to underscores under the library prefix.
  EXPECT_NE(text.find("# TYPE wiloc_ingest_submitted counter\n"
                      "wiloc_ingest_submitted 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE wiloc_service_ready gauge\n"
                      "wiloc_service_ready 1\n"),
            std::string::npos)
      << text;
}

TEST(ObsPrometheus, HistogramBucketsAreCumulativeWithInf) {
  Registry reg;
  auto& h = reg.histogram("engine.latency_us", 0.0, 40.0, 4);
  h.record(5.0);    // bin 0
  h.record(15.0);   // bin 1
  h.record(16.0);   // bin 1
  h.record(999.0);  // clamped into the last bin
  const std::string text = reg.snapshot().prometheus();
  EXPECT_NE(text.find("# TYPE wiloc_engine_latency_us histogram"),
            std::string::npos)
      << text;
  // Cumulative counts; the last finite edge is elided in favour of +Inf
  // because the top bin absorbs clamped overflow.
  EXPECT_NE(text.find("wiloc_engine_latency_us_bucket{le=\"10\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wiloc_engine_latency_us_bucket{le=\"20\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wiloc_engine_latency_us_bucket{le=\"30\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("le=\"40\""), std::string::npos) << text;
  EXPECT_NE(text.find("wiloc_engine_latency_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wiloc_engine_latency_us_count 4\n"),
            std::string::npos)
      << text;
}

TEST(ObsPrometheus, NonFiniteGaugeRendersAsPrometheusLiteral) {
  Registry reg;
  reg.gauge("weird").set(std::numeric_limits<double>::infinity());
  const std::string text = reg.snapshot().prometheus();
  EXPECT_NE(text.find("wiloc_weird +Inf\n"), std::string::npos) << text;
}

TEST(ObsSnapshot, LargeNumbersReadBackExactly) {
  // Gauges and histogram sums past 6 significant digits must not be
  // rounded, or rate(_sum)/rate(_count) moves in quantized steps.
  Registry reg;
  reg.gauge("persist.journal_bytes").set(12345678.0);
  reg.histogram("ingest.batch_us", 0.0, 2e6, 4).record(1234567.25);
  const Snapshot snap = reg.snapshot();
  const auto number_after = [](const std::string& text,
                               const std::string& key) {
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key << " in " << text;
    return at == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  const std::string json = snap.json();
  EXPECT_EQ(number_after(json, "\"persist.journal_bytes\":"), 12345678.0);
  EXPECT_EQ(number_after(json, "\"sum\":"), 1234567.25);
  const std::string prom = snap.prometheus();
  EXPECT_EQ(number_after(prom, "\nwiloc_persist_journal_bytes "), 12345678.0);
  EXPECT_EQ(number_after(prom, "\nwiloc_ingest_batch_us_sum "), 1234567.25);
}

TEST(ObsReporter, ReportAfterFlushReopensWindow) {
  Registry reg;
  std::ostringstream out;
  Reporter reporter(reg, out, {.period_s = 10.0});
  reporter.maybe_report(100.0);
  reporter.flush_final();
  const std::uint64_t flushed = reporter.reports();
  // New activity after a final flush opens a fresh window: the reporter
  // is reusable, and a second flush emits exactly once more.
  reg.counter("post_flush").inc();
  EXPECT_TRUE(reporter.maybe_report(200.0));
  reporter.flush_final();
  reporter.flush_final();  // still idempotent
  EXPECT_EQ(reporter.reports(), flushed + 1u);
  EXPECT_NE(out.str().find("\"post_flush\":1"), std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace wiloc::obs
