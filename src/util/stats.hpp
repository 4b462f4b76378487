// Descriptive statistics used throughout the evaluation harness:
// streaming moments (Welford), empirical CDFs for the paper's Fig. 8
// plots, and simple histograms.
#pragma once

#include <cstddef>
#include <vector>

#include "util/binio.hpp"
#include "util/contracts.hpp"

namespace wiloc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable; O(1) memory.
class RunningStats {
 public:
  /// The accumulator's complete internal state, exposed so the
  /// persistence layer can serialize and rebuild it bit-exactly.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Adds one observation.
  void add(double x);

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

  /// Snapshot of the internal moments (for serialization).
  State state() const { return {n_, mean_, m2_, min_, max_}; }
  /// Rebuilds an accumulator from a state() snapshot.
  static RunningStats from_state(const State& s);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the observations. Requires count() > 0.
  double mean() const;
  /// Unbiased sample variance. Returns 0 when count() < 2.
  double variance() const;
  /// Sample standard deviation (sqrt of variance()).
  double stddev() const;
  /// Smallest observation. Requires count() > 0.
  double min() const;
  /// Largest observation. Requires count() > 0.
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical cumulative distribution over a fixed sample set.
/// Built once from samples; supports both directions of lookup:
///   cdf(x)      = P[X <= x]
///   quantile(q) = smallest sample x with cdf(x) >= q
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  /// Takes ownership of the samples and sorts them. Requires non-empty.
  explicit EmpiricalCdf(std::vector<double> samples);

  std::size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Fraction of samples <= x. Requires a non-empty CDF.
  double cdf(double x) const;

  /// q-quantile for q in [0, 1]. quantile(0.5) is the median.
  double quantile(double q) const;

  double min() const;
  double max() const;
  double mean() const;

  /// Evaluates the CDF at `points` evenly spaced values spanning
  /// [min, max]; used by the bench harness to print Fig.-8-style series.
  struct Point {
    double x;
    double fraction;
  };
  std::vector<Point> series(std::size_t points) const;

  /// Read-only access to the sorted samples.
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// Serializes an accumulator (all five moments) for the persistence
/// layer; decode_stats() rebuilds it bit-exactly.
inline void encode_stats(BinWriter& w, const RunningStats& s) {
  const RunningStats::State st = s.state();
  w.put_u64(st.n);
  w.put_f64(st.mean);
  w.put_f64(st.m2);
  w.put_f64(st.min);
  w.put_f64(st.max);
}

inline RunningStats decode_stats(BinReader& r) {
  RunningStats::State st;
  st.n = static_cast<std::size_t>(r.get_u64());
  st.mean = r.get_f64();
  st.m2 = r.get_f64();
  st.min = r.get_f64();
  st.max = r.get_f64();
  return RunningStats::from_state(st);
}

/// Mean of a vector. Requires non-empty input.
double mean_of(const std::vector<double>& v);

/// Sample standard deviation of a vector (0 for fewer than 2 elements).
double stddev_of(const std::vector<double>& v);

/// p-quantile (p in [0,1]) of a vector by sorting a copy. Requires
/// non-empty input.
double quantile_of(std::vector<double> v, double p);

}  // namespace wiloc
