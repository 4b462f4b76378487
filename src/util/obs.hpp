// Observability: a lock-cheap metrics registry + lightweight tracing.
//
// The arrival-time pipeline chains per-segment predictions from
// slot-bucketed history, so silent corruption anywhere in the hot path
// (a mis-assigned history cell, a guard silently rejecting a whole
// trip's scans, a shard queue saturating) propagates into every
// downstream ETA. The obs layer makes the running server legible:
//
//  - Counter / Gauge / HistogramMetric: atomically updatable metric
//    primitives. Updates are wait-free (relaxed atomics); a mutex is
//    taken only on registration and snapshot, never on the hot path.
//  - Registry: owns metrics by name and hands out stable handles.
//    Components resolve their handles once at construction and then
//    update through raw pointers, so an un-instrumented build path costs
//    a null check.
//  - Snapshot: a point-in-time copy of every metric (cumulative).
//    Serializes to a single JSON object or the Prometheus text format.
//  - Reporter: writes newline-delimited JSON snapshots to an ostream on
//    a fixed period — the /metrics-style report ROADMAP asks for.
//  - Tracer: a bounded ring of per-scan stage events (ingest -> locate
//    -> fix -> observe -> release), gated behind ServerConfig::tracing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace wiloc::obs {

/// Monotonic event count. Wait-free increments from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, buffer fill, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram: its non-empty buckets, indexed
/// into HistogramMetric's one layout and ordered by value.
struct HistogramSnapshot {
  struct Bucket {
    std::size_t index = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> buckets;  ///< non-empty only, ascending index
  std::uint64_t total = 0;
  double sum = 0.0;

  bool empty() const { return total == 0; }
  double mean() const;
  /// Midpoint of the bucket where the cumulative count first reaches
  /// q * total (q in [0, 1]): q = 0 gives the first non-empty bucket,
  /// q = 1 the last. Between the zero and top buckets that is at most
  /// half a bucket, 1/16 of the value, off the exact quantile. Returns 0
  /// for an empty histogram.
  double quantile(double q) const;
};

/// Histogram over the one log-linear (HDR-style) bucket layout every
/// metric shares, so no call site picks bounds. Each power of two from
/// 2^kMinExponent to 2^kMaxExponent splits into 8 equal buckets, each at
/// most 1/8 of its lower edge wide. Smaller magnitudes share the zero
/// bucket, larger ones the top bucket; negative values get mirrored
/// buckets. Indices ascend with value: positive buckets are [lo, hi),
/// negative ones (-hi, -lo]. Recording is a bit-cast bucket index plus
/// three relaxed atomic RMWs (bucket, total, sum).
class HistogramMetric {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr int kMinExponent = -10;
  static constexpr int kMaxExponent = 40;
  static constexpr std::size_t kSideBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets;
  static constexpr std::size_t kZeroBucket = kSideBuckets;
  static constexpr std::size_t kBucketCount = 2 * kSideBuckets + 1;

  /// Bucket of a finite value, from its IEEE-754 exponent and top
  /// kSubBucketBits mantissa bits.
  static std::size_t bucket_of(double x);
  /// Upper edge in value order; +Inf for the top bucket.
  static double upper_edge(std::size_t bucket);
  /// What a bucket reads back as: its midpoint (0 for the zero bucket).
  static double midpoint(std::size_t bucket);

  /// Non-finite samples are dropped.
  void record(double x);

  std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every metric in a registry.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value by name; 0 when absent.
  std::uint64_t counter(const std::string& name) const;
  /// Gauge value by name; 0.0 when absent.
  double gauge(const std::string& name) const;
  /// Histogram by name; nullptr when absent.
  const HistogramSnapshot* histogram(const std::string& name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}};
  /// each histogram lists its non-empty buckets as [upper_edge,count]
  /// pairs (the top bucket's edge is null: JSON has no infinity).
  void write_json(std::ostream& out) const;
  std::string json() const;

  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges as single samples, histograms as one cumulative
  /// `_bucket{le=}` line per non-empty bucket, then `+Inf`, `_sum` and
  /// `_count`. Metric names are prefixed "wiloc_"
  /// and sanitized (characters outside [a-zA-Z0-9_] become '_'), so
  /// "ingest.accepted" scrapes as wiloc_ingest_accepted.
  void write_prometheus(std::ostream& out) const;
  std::string prometheus() const;
};

/// Named metric store. Registration and snapshots lock; updates through
/// the returned handles never do. Handles are stable for the registry's
/// lifetime; re-registering a name returns the existing metric.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name);

  /// Cumulative snapshot: metrics keep counting.
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// -- tracing ---------------------------------------------------------------

/// Lifecycle stage of one scan flowing through the server.
enum class TraceStage : std::uint8_t {
  ingest,   ///< submission reached its shard's pipeline
  locate,   ///< scan released to the positioning pipeline
  fix,      ///< a position fix was produced
  observe,  ///< a completed segment observation was harvested
  release,  ///< the observation's global order became final
};
inline constexpr std::size_t kTraceStageCount = 5;

const char* to_string(TraceStage stage);

/// One span event. `id` is the engine's global submission sequence
/// number, so every event of one scan shares an id and events of one
/// scan are totally ordered by stage.
struct TraceEvent {
  std::uint64_t id = 0;    ///< submission sequence number
  std::uint32_t trip = 0;  ///< trip id value (0 when not applicable)
  TraceStage stage = TraceStage::ingest;
  double t = 0.0;          ///< scan/observation sim-time
  /// Monotonic wall clock (steady_clock ns) when the event was
  /// recorded; stamped by Tracer::record, so untraced runs never read
  /// the clock.
  std::int64_t wall_ns = 0;
};

/// Bounded event ring. Recording drops the oldest events on overflow
/// (never blocks the pipeline for longer than the push); `take()` drains.
/// Recording is a no-op while disabled, so an always-wired tracer costs
/// one relaxed atomic load per call site. An enabled record stamps the
/// event's wall_ns before taking the ring lock.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 8192);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void record(const TraceEvent& event);
  /// Drains the buffered events in record order.
  std::vector<TraceEvent> take();
  /// Events discarded because the ring was full.
  std::uint64_t dropped() const;

 private:
  std::atomic<bool> enabled_{false};
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> ring_;
  std::uint64_t dropped_ = 0;
};

// -- periodic reporting ----------------------------------------------------

struct ReporterOptions {
  double period_s = 60.0;  ///< min spacing between maybe_report emits
};

/// Where a Reporter reads its snapshots from: a server's
/// metrics_snapshot(), or a bare registry's snapshot().
using SnapshotSource = std::function<Snapshot()>;

/// Writes newline-delimited JSON snapshots ("{"t":...,"counters":...}")
/// to an ostream. Drive it from the serving loop with maybe_report(now);
/// the first call reports immediately, later calls report once per
/// period. On destruction the reporter flushes one final snapshot when
/// activity was seen since the last emitted line, so a short-lived run
/// (or a crash-test harness tearing a server down) never loses its last
/// metrics window. Not thread-safe; call from one control thread.
class Reporter {
 public:
  /// Whatever `source` reads, and the stream, must outlive the reporter.
  Reporter(SnapshotSource source, std::ostream& out,
           ReporterOptions options = {});
  ~Reporter();

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Reports when at least period_s has passed since the last report
  /// (or on the first call). Returns true when a line was written.
  bool maybe_report(double now);
  /// Unconditionally writes one snapshot line stamped with `now`.
  void report(double now);
  /// Emits a final line for the window since the last report, if any
  /// maybe_report() call was suppressed in between. Strictly
  /// idempotent: once flushed, repeated calls (a serving front-end's
  /// shutdown AND the destructor both flush) write nothing until new
  /// activity opens another window. Callers must order this after the
  /// ingest engine has drained, or the final line undercounts.
  void flush_final();

  std::size_t reports() const { return reports_; }

 private:
  void report_locked(double now);

  SnapshotSource source_;
  std::ostream* out_;
  ReporterOptions options_;
  /// flush_final() (service stop) may run on another thread than the
  /// serve loop's maybe_report; the mutex keeps the emitted stream
  /// line-atomic and the idempotence flag coherent.
  std::mutex mu_;
  std::optional<double> last_;
  std::optional<double> latest_now_;  ///< newest time seen by maybe_report
  bool finalized_ = false;  ///< set by flush_final, cleared by a report
  std::size_t reports_ = 0;
};

}  // namespace wiloc::obs
