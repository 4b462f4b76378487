#include "util/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/contracts.hpp"
#include "util/json_num.hpp"

namespace wiloc::obs {

// -- HistogramMetric -------------------------------------------------------

std::size_t HistogramMetric::bucket_of(double x) {
  constexpr int kMantissaBits = 52;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const int exponent =
      static_cast<int>((bits >> kMantissaBits) & 0x7ff) - 1023;
  if (exponent < kMinExponent) return kZeroBucket;
  const std::size_t magnitude =
      exponent >= kMaxExponent
          ? kSideBuckets - 1
          : (static_cast<std::size_t>(exponent - kMinExponent)
             << kSubBucketBits) |
                ((bits >> (kMantissaBits - kSubBucketBits)) &
                 (kSubBuckets - 1));
  return (bits >> 63) != 0 ? kZeroBucket - 1 - magnitude
                           : kZeroBucket + 1 + magnitude;
}

double HistogramMetric::upper_edge(std::size_t bucket) {
  // A negative bucket is its positive mirror negated, so its upper edge
  // is minus the mirror's lower edge.
  if (bucket < kZeroBucket) return -upper_edge(kBucketCount - 2 - bucket);
  const std::size_t k = bucket - kZeroBucket;
  if (k == kSideBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0 + static_cast<double>(k % kSubBuckets) / kSubBuckets,
                    static_cast<int>(k / kSubBuckets) + kMinExponent);
}

double HistogramMetric::midpoint(std::size_t bucket) {
  if (bucket < kZeroBucket) return -midpoint(kBucketCount - 1 - bucket);
  if (bucket == kZeroBucket) return 0.0;
  const double hi = bucket + 1 == kBucketCount
                        ? std::ldexp(1.0, kMaxExponent)
                        : upper_edge(bucket);
  return 0.5 * (upper_edge(bucket - 1) + hi);
}

void HistogramMetric::record(double x) {
  if (!std::isfinite(x)) return;  // poisoned samples never skew the buckets
  counts_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

HistogramSnapshot HistogramMetric::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t count = counts_[i].load(std::memory_order_relaxed);
    if (count != 0) snap.buckets.push_back({i, count});
  }
  snap.total = total_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::mean() const {
  return total == 0 ? 0.0 : sum / static_cast<double>(total);
}

double HistogramSnapshot::quantile(double q) const {
  if (total == 0 || buckets.empty()) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    cumulative += b.count;
    if (static_cast<double>(cumulative) >= target)
      return HistogramMetric::midpoint(b.index);
  }
  return HistogramMetric::midpoint(buckets.back().index);
}

// -- Snapshot --------------------------------------------------------------

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* Snapshot::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        else
          out << c;
    }
  }
  out << '"';
}

// JSON has no NaN/Inf: json_num prints them as null.
void write_number(std::ostream& out, double v) {
  out << json_num(v);
}

}  // namespace

void Snapshot::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ',';
    first = false;
    write_escaped(out, name);
    out << ':' << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ',';
    first = false;
    write_escaped(out, name);
    out << ':';
    write_number(out, value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ',';
    first = false;
    write_escaped(out, name);
    out << ":{\"total\":" << h.total << ",\"sum\":";
    write_number(out, h.sum);
    out << ",\"mean\":";
    write_number(out, h.mean());
    out << ",\"p50\":";
    write_number(out, h.quantile(0.5));
    out << ",\"p99\":";
    write_number(out, h.quantile(0.99));
    out << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      out << (i ? ",[" : "[");
      write_number(out, HistogramMetric::upper_edge(h.buckets[i].index));
      out << ',' << h.buckets[i].count << ']';
    }
    out << "]}";
  }
  out << "}}";
}

std::string Snapshot::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; we map every
/// out-of-alphabet character (the registry's '.' separators, '-') to
/// '_' and prepend the library prefix.
std::string prometheus_name(const std::string& name) {
  std::string out = "wiloc_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prom_number(std::ostream& out, double v) {
  if (std::isfinite(v))
    out << json_num(v);
  else if (std::isnan(v))
    out << "NaN";
  else
    out << (v > 0 ? "+Inf" : "-Inf");
}

}  // namespace

void Snapshot::write_prometheus(std::ostream& out) const {
  for (const auto& [name, value] : counters) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " counter\n";
    out << prom << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << ' ';
    write_prom_number(out, value);
    out << '\n';
  }
  for (const auto& [name, h] : histograms) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const HistogramSnapshot::Bucket& b : h.buckets) {
      cumulative += b.count;
      // The top bucket's edge is +Inf, written once below.
      if (b.index + 1 == HistogramMetric::kBucketCount) break;
      out << prom << "_bucket{le=\"";
      write_prom_number(out, HistogramMetric::upper_edge(b.index));
      out << "\"} " << cumulative << '\n';
    }
    out << prom << "_bucket{le=\"+Inf\"} " << h.total << '\n';
    out << prom << "_sum ";
    write_prom_number(out, h.sum);
    out << '\n';
    out << prom << "_count " << h.total << '\n';
  }
}

std::string Snapshot::prometheus() const {
  std::ostringstream out;
  write_prometheus(out);
  return out.str();
}

// -- Registry --------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_)
    snap.histograms[name] = h->snapshot();
  return snap;
}

// -- Tracer ----------------------------------------------------------------

const char* to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::ingest: return "ingest";
    case TraceStage::locate: return "locate";
    case TraceStage::fix: return "fix";
    case TraceStage::observe: return "observe";
    case TraceStage::release: return "release";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  WILOC_EXPECTS(capacity >= 1);
}

void Tracer::record(const TraceEvent& event) {
  if (!enabled()) return;
  TraceEvent stamped = event;
  stamped.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(stamped);
}

std::vector<TraceEvent> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out(ring_.begin(), ring_.end());
  ring_.clear();
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// -- Reporter --------------------------------------------------------------

Reporter::Reporter(SnapshotSource source, std::ostream& out,
                   ReporterOptions options)
    : source_(std::move(source)), out_(&out), options_(options) {
  WILOC_EXPECTS(options_.period_s >= 0.0);
}

Reporter::~Reporter() {
  try {
    flush_final();
  } catch (...) {
    // A failing stream must not throw out of a destructor.
  }
}

bool Reporter::maybe_report(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!latest_now_.has_value() || now > *latest_now_) latest_now_ = now;
  if (last_.has_value() && now - *last_ < options_.period_s) return false;
  report_locked(now);
  return true;
}

void Reporter::flush_final() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return;  // already flushed; nothing new can be pending
  if (latest_now_.has_value() &&
      (!last_.has_value() || *latest_now_ > *last_))
    report_locked(*latest_now_);
  finalized_ = true;
}

void Reporter::report(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  report_locked(now);
}

void Reporter::report_locked(double now) {
  const Snapshot snap = source_();
  *out_ << "{\"t\":" << json_num(now) << ",\"snapshot\":";
  snap.write_json(*out_);
  *out_ << "}\n";
  out_->flush();
  last_ = now;
  finalized_ = false;  // a new window may accumulate after this line
  ++reports_;
}

}  // namespace wiloc::obs
