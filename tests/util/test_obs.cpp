#include "util/obs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

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

TEST(ObsCounter, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

using H = HistogramMetric;

TEST(ObsHistogram, BinsAndClamping) {
  HistogramMetric h;
  h.record(1.0);    // [1, 1.125)
  h.record(9.9);    // [9, 10)
  h.record(-50.0);  // (-52, -48]
  h.record(50.0);   // [48, 52)
  // Past 2^40: clamped into the top bucket without converting an
  // out-of-range double (the sanitizer build traps float-cast-overflow).
  h.record(1e15);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.total, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0 + 9.9 - 50.0 + 50.0 + 1e15);
  ASSERT_EQ(snap.buckets.size(), 5u);
  // Non-empty buckets only, in value order.
  const double values[] = {-50.0, 1.0, 9.9, 50.0, 1e15};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap.buckets[i].index, H::bucket_of(values[i])) << i;
    EXPECT_EQ(snap.buckets[i].count, 1u) << i;
  }
  EXPECT_EQ(H::upper_edge(H::bucket_of(1.0)), 1.125);
  EXPECT_EQ(H::upper_edge(H::bucket_of(9.9)), 10.0);
  EXPECT_EQ(H::upper_edge(H::bucket_of(-50.0)), -48.0);
  EXPECT_EQ(H::upper_edge(H::bucket_of(50.0)), 52.0);
  EXPECT_EQ(snap.buckets.back().index, H::kBucketCount - 1);
  EXPECT_EQ(H::upper_edge(H::kBucketCount - 1),
            std::numeric_limits<double>::infinity());
  // The top bucket reads back inside [2^39 * 15/8, 2^40).
  EXPECT_GE(snap.quantile(1.0), std::ldexp(1.0, 39) * 1.875);
  EXPECT_LT(snap.quantile(1.0), std::ldexp(1.0, 40));
  // The largest magnitudes of either sign share the outermost buckets.
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::max()),
            H::kBucketCount - 1);
  EXPECT_EQ(H::bucket_of(-1e15), 0u);
  EXPECT_EQ(H::bucket_of(-std::numeric_limits<double>::max()), 0u);
}

TEST(ObsHistogram, LayoutIsOrderedAndEightPerOctave) {
  // Upper edges strictly increase with the index, and every finite
  // bucket is at most 1/8 of its smaller edge wide.
  for (std::size_t i = 1; i + 1 < H::kBucketCount; ++i) {
    const double lo = H::upper_edge(i - 1);
    const double hi = H::upper_edge(i);
    ASSERT_LT(lo, hi) << i;
    if (i != H::kZeroBucket) {
      EXPECT_LE(hi - lo, std::min(std::abs(lo), std::abs(hi)) / 8.0) << i;
    }
  }
  // Each bucket's own edges map back to it: the lower edge of a
  // positive bucket and the upper edge of a negative one are inclusive.
  for (std::size_t i = H::kZeroBucket + 1; i < H::kBucketCount; ++i)
    ASSERT_EQ(H::bucket_of(H::upper_edge(i - 1)), i) << i;
  for (std::size_t i = 0; i < H::kZeroBucket; ++i)
    ASSERT_EQ(H::bucket_of(H::upper_edge(i)), i) << i;
  EXPECT_EQ(H::upper_edge(H::kZeroBucket), std::ldexp(1.0, -10));
  EXPECT_EQ(H::bucket_of(std::ldexp(1.0, 40)), H::kBucketCount - 1);
  EXPECT_EQ(H::bucket_of(std::nextafter(std::ldexp(1.0, 40), 0.0)),
            H::kBucketCount - 1);
  EXPECT_EQ(H::bucket_of(std::ldexp(1.0, 39) * 1.875), H::kBucketCount - 1);
  EXPECT_EQ(H::bucket_of(std::nextafter(std::ldexp(1.0, 39) * 1.875, 0.0)),
            H::kBucketCount - 2);
}

TEST(ObsHistogram, SingleValueReadsBackWithinHalfABucket) {
  // From 1e-3 to 1e9 and the mirrored negatives, a single-valued
  // histogram's p50 is within 1/16 of the value.
  for (double v = 1e-3; v <= 1e9; v *= 1.37) {
    for (const double x : {v, -v}) {
      HistogramMetric h;
      h.record(x);
      const double p50 = h.snapshot().quantile(0.5);
      EXPECT_LE(std::abs(p50 - x), std::abs(x) / 16.0) << x;
      EXPECT_EQ(p50 > 0, x > 0) << x;
    }
  }
  // A 36 us snapshot hit reads 36 +- 2.25 us, not a 1 ms bin centre.
  HistogramMetric hit;
  hit.record(36.0);
  EXPECT_NEAR(hit.snapshot().quantile(0.5), 36.0, 2.25);
}

TEST(ObsHistogram, ZeroAndTinyValuesLandInTheZeroBucket) {
  for (const double x : {0.0, -0.0, 1e-4, -1e-4, 5e-324,
                         std::nextafter(std::ldexp(1.0, -10), 0.0)}) {
    HistogramMetric h;
    h.record(x);
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.buckets.size(), 1u) << x;
    EXPECT_EQ(snap.buckets[0].index, H::kZeroBucket) << x;
    EXPECT_EQ(snap.quantile(0.5), 0.0) << x;
  }
  EXPECT_EQ(H::bucket_of(std::ldexp(1.0, -10)), H::kZeroBucket + 1);
  EXPECT_EQ(H::bucket_of(-std::ldexp(1.0, -10)), H::kZeroBucket - 1);
}

TEST(ObsHistogram, IgnoresNonFinite) {
  HistogramMetric h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(-std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(h.snapshot().buckets.empty());
  EXPECT_DOUBLE_EQ(h.snapshot().sum, 0.0);
}

TEST(ObsHistogram, MeanAndQuantiles) {
  HistogramMetric h;
  for (int i = 0; i < 99; ++i) h.record(5.0);  // [5, 5.5), midpoint 5.25
  h.record(95.0);                              // [88, 96), midpoint 92
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_NEAR(snap.mean(), (99.0 * 5.0 + 95.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 5.25);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 5.25);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 92.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, QuantileEndsAreNonEmptyBuckets) {
  // q = 0 reads the first non-empty bucket, not the layout's first
  // bucket; q = 1 reads the last non-empty one.
  HistogramMetric h;
  h.record(-3.0);  // (-3.25, -3]
  h.record(7.0);   // [7, 7.5)
  h.record(100.0);  // [96, 104)
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), -3.125);
  EXPECT_DOUBLE_EQ(snap.quantile(-1.0), -3.125);  // clamped to q = 0
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 7.25);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(snap.quantile(2.0), 100.0);  // clamped to q = 1
}

TEST(ObsRegistry, HandlesAreStableAndShared) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.snapshot().counter("x"), 1u);
  HistogramMetric& h1 = reg.histogram("h");
  EXPECT_EQ(&h1, &reg.histogram("h"));
  EXPECT_NE(&h1, &reg.histogram("other"));
}

TEST(ObsRegistry, SnapshotIsPointInTime) {
  Registry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.histogram("h").record(3.0);
  const Snapshot snap = reg.snapshot();
  reg.counter("c").inc();  // must not affect the copy
  EXPECT_EQ(snap.counter("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 2.5);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->total, 1u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(ObsRegistry, ConcurrentIncrementsAreLossless) {
  Registry reg;
  Counter& c = reg.counter("hits");
  HistogramMetric& h = reg.histogram("lat");
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
  std::uint64_t bucketed = 0;
  for (const auto& b : h.snapshot().buckets) bucketed += b.count;
  EXPECT_EQ(bucketed, kThreads * kPerThread);
}

TEST(ObsSnapshot, JsonShape) {
  Registry reg;
  reg.counter("a.b").inc(2);
  reg.gauge("g").set(1.5);
  auto& h = reg.histogram("h");
  h.record(0.5);    // [0.5, 0.5625)
  h.record(0.5);
  h.record(-3.0);   // (-3.25, -3]
  h.record(1e15);   // top bucket
  const std::string json = reg.snapshot().json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"counters\":{\"a.b\":2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.5}"), std::string::npos) << json;
  // Non-empty buckets only, as [upper_edge,count] in value order; the
  // top bucket's +Inf edge is null.
  EXPECT_NE(json.find("\"h\":{\"total\":4,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[-3,1],[0.5625,2],[null,1]]}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"lo\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"counts\""), std::string::npos) << json;
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
  Reporter reporter([&reg] { return reg.snapshot(); }, out,
                    {.period_s = 10.0});
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
  Reporter reporter([&reg] { return reg.snapshot(); }, out,
                    {.period_s = 10.0});
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
    Reporter reporter([&reg] { return reg.snapshot(); }, out,
                      {.period_s = 1.0});
    reporter.flush_final();  // no maybe_report ever happened
  }                          // destructor flush is silent too
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(ObsReporter, DestructorFlushesLastWindow) {
  Registry reg;
  std::ostringstream out;
  {
    Reporter reporter([&reg] { return reg.snapshot(); }, out,
                      {.period_s = 1e9});
    reporter.maybe_report(10.0);
    reg.counter("teardown").inc(3);
    reporter.maybe_report(20.0);  // suppressed by the huge period
  }
  // Two lines: the initial report and the destructor's final flush.
  EXPECT_NE(out.str().find("{\"t\":20"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"teardown\":3"), std::string::npos) << out.str();
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
  auto& h = reg.histogram("engine.latency_us");
  h.record(5.0);    // [5, 5.5)
  h.record(15.0);   // [15, 16)
  h.record(16.0);   // [16, 18): a value on an edge opens the next bucket
  h.record(999.0);  // [960, 1024)
  h.record(1e15);   // top bucket
  const std::string text = reg.snapshot().prometheus();
  EXPECT_NE(text.find("# TYPE wiloc_engine_latency_us histogram"),
            std::string::npos)
      << text;
  // One cumulative line per non-empty bucket; the top bucket's edge is
  // +Inf, written once.
  EXPECT_NE(text.find("wiloc_engine_latency_us_bucket{le=\"5.5\"} 1\n"
                      "wiloc_engine_latency_us_bucket{le=\"16\"} 2\n"
                      "wiloc_engine_latency_us_bucket{le=\"18\"} 3\n"
                      "wiloc_engine_latency_us_bucket{le=\"1024\"} 4\n"
                      "wiloc_engine_latency_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos)
      << text;
  std::size_t lines = 0;
  for (std::size_t at = text.find("_bucket{"); at != std::string::npos;
       at = text.find("_bucket{", at + 1))
    ++lines;
  EXPECT_EQ(lines, 5u) << text;
  EXPECT_NE(text.find("wiloc_engine_latency_us_count 5\n"),
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
  reg.histogram("ingest.batch_us").record(1234567.25);
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
  Reporter reporter([&reg] { return reg.snapshot(); }, out,
                    {.period_s = 10.0});
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
