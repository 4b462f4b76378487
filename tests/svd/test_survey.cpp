#include "svd/survey.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "sim/crowd.hpp"
#include "svd/route_svd.hpp"
#include "util/stats.hpp"

namespace wiloc::svd {
namespace {

/// Feeds the builder scans taken along the route at ground-truth
/// positions (the crowd, position-labelled by tracking/GPS seeding).
void run_survey(SurveyBuilder& builder, const testing::MiniCity& city,
                std::size_t passes, std::uint64_t seed) {
  const rf::Scanner scanner;
  Rng rng(seed);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    // One scan per bin per pass (a dense crowd over many trips).
    for (double offset = 3.0; offset <= city.route_a().length();
         offset += 10.0) {
      const geo::Point p = city.route_a().point_at(offset);
      builder.add_scan(offset,
                       scanner.scan(city.aps, city.model, p, 0.0, rng));
    }
  }
}

TEST(SurveyBuilder, AccumulatesAndCovers) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  EXPECT_EQ(builder.scan_count(), 0u);
  run_survey(builder, city, 3, 1);
  EXPECT_GT(builder.scan_count(), 200u);
  // Nearly all bins covered after 3 passes at 25 m spacing (10 m bins
  // get hit on most passes).
  EXPECT_GT(builder.covered_bins(), builder.total_bins() / 2);
}

TEST(SurveyBuilder, UndersampledBinsAreEmpty) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  const rf::Scanner scanner;
  Rng rng(1);
  builder.add_scan(
      500.0, scanner.scan(city.aps, city.model,
                          city.route_a().point_at(500.0), 0.0, rng));
  // min_samples = 2 by default: one scan is not enough.
  EXPECT_TRUE(builder.bin_signature(50).empty());
}

TEST(SurveyBuilder, EmptyScansIgnored) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  builder.add_scan(100.0, rf::WifiScan{});
  EXPECT_EQ(builder.scan_count(), 0u);
}

TEST(SurveyBuilder, BuildRequiresData) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  EXPECT_THROW(builder.build(), StateError);
}

TEST(SurveyBuilder, BuiltIndexLocates) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  run_survey(builder, city, 6, 2);
  const auto index = builder.build();
  ASSERT_NE(index, nullptr);
  EXPECT_DOUBLE_EQ(index->route_length(), city.route_a().length());

  // Probe with fresh scans; errors should be tile-scale.
  const rf::Scanner scanner;
  Rng rng(9);
  RunningStats errors;
  for (double truth = 100.0; truth < 1900.0; truth += 140.0) {
    const auto scan =
        scanner.scan(city.aps, city.model,
                     city.route_a().point_at(truth), 0.0, rng);
    const auto candidates = index->locate(scan.ranked_aps());
    if (candidates.empty()) continue;
    double best = 1e18;
    for (const auto& c : candidates)
      best = std::min(best, std::abs(c.route_offset - truth));
    errors.add(best);
  }
  ASSERT_GT(errors.count(), 8u);
  EXPECT_LT(errors.mean(), 40.0);
}

TEST(SurveyBuilder, ConvergesToModelDiagram) {
  // The crowd-built diagram should agree with the model-built one on
  // most of the route: compare signatures at probe offsets.
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  run_survey(builder, city, 10, 3);
  const auto crowd = builder.build();

  const RouteSvd model_index(city.route_a(), city.ap_snapshot(),
                             city.model, {});
  std::size_t agree = 0;
  std::size_t total = 0;
  for (double offset = 20.0; offset < city.route_a().length();
       offset += 60.0) {
    const auto truth = model_index.signature_at(offset);
    if (truth.size() < 2) continue;
    // Locate with the model signature: the crowd index should place it
    // near `offset`.
    const auto candidates =
        crowd->locate(std::vector<rf::ApId>(truth.begin(), truth.end()));
    if (candidates.empty()) {
      ++total;
      continue;
    }
    double best = 1e18;
    for (const auto& c : candidates)
      best = std::min(best, std::abs(c.route_offset - offset));
    ++total;
    if (best < 60.0) ++agree;
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.8);
}

TEST(SurveyBuilder, ValidatesParams) {
  testing::MiniCity city;
  SurveyParams bad;
  bad.bin_m = 0.0;
  EXPECT_THROW(SurveyBuilder(city.route_a(), bad), ContractViolation);
  SurveyParams bad2;
  bad2.order = 0;
  EXPECT_THROW(SurveyBuilder(city.route_a(), bad2), ContractViolation);
}

TEST(SurveyIndex, IntervalsTileRoute) {
  testing::MiniCity city;
  SurveyBuilder builder(city.route_a());
  run_survey(builder, city, 4, 4);
  const auto index = builder.build();
  const auto* survey = dynamic_cast<const SurveyIndex*>(index.get());
  ASSERT_NE(survey, nullptr);
  const auto& intervals = survey->intervals();
  ASSERT_FALSE(intervals.empty());
  EXPECT_DOUBLE_EQ(intervals.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(intervals.back().end, city.route_a().length());
  for (std::size_t i = 1; i < intervals.size(); ++i)
    EXPECT_DOUBLE_EQ(intervals[i].begin, intervals[i - 1].end);
}

}  // namespace
}  // namespace wiloc::svd
