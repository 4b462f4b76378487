#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace wiloc {
namespace {

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyThrowsOnMean) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.max(), ContractViolation);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(1);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(EmpiricalCdf, RequiresNonEmpty) {
  EXPECT_THROW(EmpiricalCdf(std::vector<double>{}), ContractViolation);
}

TEST(EmpiricalCdf, CdfAtKnownPoints) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverse) {
  const EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 50.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 30.0);
}

TEST(EmpiricalCdf, QuantileRejectsOutOfRange) {
  const EmpiricalCdf cdf({1.0});
  EXPECT_THROW(cdf.quantile(-0.1), ContractViolation);
  EXPECT_THROW(cdf.quantile(1.1), ContractViolation);
}

TEST(EmpiricalCdf, CdfIsMonotone) {
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(rng.normal(0, 1));
  const EmpiricalCdf cdf(std::move(samples));
  double prev = -1.0;
  for (double x = -3.0; x <= 3.0; x += 0.1) {
    const double f = cdf.cdf(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(EmpiricalCdf, SeriesSpansRange) {
  const EmpiricalCdf cdf({0.0, 5.0, 10.0});
  const auto series = cdf.series(11);
  ASSERT_EQ(series.size(), 11u);
  EXPECT_DOUBLE_EQ(series.front().x, 0.0);
  EXPECT_DOUBLE_EQ(series.back().x, 10.0);
  EXPECT_DOUBLE_EQ(series.back().fraction, 1.0);
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].fraction, series[i - 1].fraction);
}

TEST(EmpiricalCdf, QuantileOfCdfRoundTrip) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.uniform(0, 100));
  const EmpiricalCdf cdf(std::move(samples));
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double x = cdf.quantile(q);
    EXPECT_GE(cdf.cdf(x), q - 1e-12);
  }
}

TEST(VectorStats, MeanStddevQuantile) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_NEAR(stddev_of(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.5), 2.0);
  EXPECT_THROW(mean_of({}), ContractViolation);
  EXPECT_DOUBLE_EQ(stddev_of({1.0}), 0.0);
}

}  // namespace
}  // namespace wiloc
