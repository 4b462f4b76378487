// Measurement helpers of the serving benchmark that do not touch the
// library: percentile reporting, span self time, matching what the
// lock-free snapshot showed to the fixes the tracker made, and open-loop
// pacing. Kept library-free so tests/selftest.cpp can check them alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

// -- percentiles --------------------------------------------------------

/// The highest reported percentile that still has at least ten samples
/// beyond it: 0.99 from 1000 samples on, else the highest of 0.95, 0.9,
/// 0.75 and 0.5 that qualifies; 0 when even the median has fewer than
/// ten samples above it (n < 20).
double tail_level(std::size_t n);

/// Nearest-rank quantile of an ascending vector (q in [0, 1]); 0 when
/// empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median plus the tail percentile chosen by tail_level().
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;        ///< value at tail_q
  double tail_q = 0.0;      ///< 0.99 with enough samples, lower otherwise
};

/// Sorts the samples in place and summarizes them.
Summary summarize(std::vector<double>& samples);

/// Mean after dropping the highest and the lowest value; the plain mean
/// of fewer than three values; 0 when empty. Sorts in place.
double trimmed_mean(std::vector<double>& values);

// -- spans ---------------------------------------------------------------

/// One timed call into a layer, in steady-clock seconds. Spans of one
/// request share `request`; `parent` names the span that caused this one
/// (0 = a root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// A span's self time: its duration minus the part of [start, end] that
/// the union of its children covers. Children may overlap each other and
/// stick out of the parent; only the covered part inside counts once.
double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children);

/// Writes spans as JSON lines ({"id":..,"parent":..,...}). Returns false
/// when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// -- snapshot visibility -------------------------------------------------

/// One fix of a trip as the tracker made it (sim time, route offset).
struct FixPoint {
  double time = 0.0;
  double offset = 0.0;
};

/// One change the watcher saw in a trip's published snapshot entry.
struct Sighting {
  double wall = 0.0;
  double offset = 0.0;
};

/// Matches each sighting to a run of the fix list: consecutive fixes
/// with equal offsets form one run (the snapshot cannot tell them
/// apart). Matching is monotone: a sighting maps to the first run at or
/// after the previous sighting's run whose offset equals it exactly, or
/// to -1 when none does (then the next search starts where it was).
/// Returns, per fix, its run index in `fix_run`.
std::vector<long> match_sightings(const std::vector<FixPoint>& fixes,
                                  const std::vector<Sighting>& sightings,
                                  std::vector<long>* fix_run);

/// When a scan of time `scan_time` became visible: the wall time of the
/// first sighting whose run is at or after the run of the first fix made
/// at or after the scan. `no_fix` is set when no such fix exists (the
/// sample cannot be judged); nullopt otherwise means it was never shown.
std::optional<double> visible_wall(const std::vector<FixPoint>& fixes,
                                   const std::vector<Sighting>& sightings,
                                   const std::vector<long>& sighting_run,
                                   const std::vector<long>& fix_run,
                                   double scan_time, bool* no_fix);

// -- open-loop pacing ----------------------------------------------------

/// Fixed-rate schedule: request k is due at start + k * interval. The
/// sender records when each request actually went out; latency is timed
/// from the due time, so a stall also charges the requests it delayed.
class Pacer {
 public:
  Pacer(double start, double interval) : start_(start), interval_(interval) {}

  double due(std::size_t k) const {
    return start_ + static_cast<double>(k) * interval_;
  }
  /// Records that request k was sent at `sent` (lateness = sent - due,
  /// never negative).
  void sent(std::size_t k, double sent);
  /// Lateness samples in seconds, one per sent request.
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  double start_;
  double interval_;
  std::vector<double> lateness_;
};

// -- machine speed -------------------------------------------------------

/// Thread CPU seconds of a fixed piece of integer and cache work (about a
/// quarter millisecond on a 3 GHz core). CPU time, not wall time, so
/// being preempted by the benchmark's own threads does not count; what
/// moves it is the core's speed (frequency, SMT sibling load).
double probe_cpu_s();

// -- process -------------------------------------------------------------

/// Steady-clock seconds.
double now_s();
/// Resident set size of this process in MB (0 when unavailable).
double rss_mb();

}  // namespace servebench
