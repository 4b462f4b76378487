#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wiloc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

RunningStats RunningStats::from_state(const State& s) {
  RunningStats out;
  out.n_ = s.n;
  out.mean_ = s.mean;
  out.m2_ = s.m2;
  out.min_ = s.min;
  out.max_ = s.max;
  return out;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ = (n * mean_ + m * other.mean_) / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const {
  WILOC_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  WILOC_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  WILOC_EXPECTS(n_ > 0);
  return max_;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  WILOC_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::cdf(double x) const {
  WILOC_EXPECTS(!sorted_.empty());
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  WILOC_EXPECTS(!sorted_.empty());
  WILOC_EXPECTS(q >= 0.0 && q <= 1.0);
  if (q <= 0.0) return sorted_.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
}

double EmpiricalCdf::min() const {
  WILOC_EXPECTS(!sorted_.empty());
  return sorted_.front();
}

double EmpiricalCdf::max() const {
  WILOC_EXPECTS(!sorted_.empty());
  return sorted_.back();
}

double EmpiricalCdf::mean() const {
  WILOC_EXPECTS(!sorted_.empty());
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::series(
    std::size_t points) const {
  WILOC_EXPECTS(points >= 2);
  WILOC_EXPECTS(!sorted_.empty());
  std::vector<Point> out;
  out.reserve(points);
  const double lo = min();
  const double hi = max();
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) /
                 static_cast<double>(points - 1);
    out.push_back({x, cdf(x)});
  }
  return out;
}

double mean_of(const std::vector<double>& v) {
  WILOC_EXPECTS(!v.empty());
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double stddev_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean_of(v);
  double acc = 0.0;
  for (const double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

double quantile_of(std::vector<double> v, double p) {
  return EmpiricalCdf(std::move(v)).quantile(p);
}

}  // namespace wiloc
