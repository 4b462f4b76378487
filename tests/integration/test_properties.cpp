// Parameterized property suites: invariants that must hold across many
// random worlds (seeds), not just the fixtures the other tests pin down.
#include <gtest/gtest.h>

#include "core/mobility_filter.hpp"
#include "core/predictor.hpp"
#include "core/seasonal.hpp"
#include "geo/polyline.hpp"
#include "svd/grid_svd.hpp"
#include "svd/route_svd.hpp"
#include "svd/survey.hpp"
#include "util/rng.hpp"

namespace wiloc {
namespace {

// ---------------------------------------------------------------------
// SVD partition invariants over random AP layouts.
// ---------------------------------------------------------------------

class SvdPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SvdPartitionProperty, PartitionAndAdjacencyInvariants) {
  Rng rng(GetParam());
  std::vector<rf::AccessPoint> aps;
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 14));
  for (std::uint32_t i = 0; i < n; ++i) {
    aps.push_back({rf::ApId(i), "", {rng.uniform(0, 300), rng.uniform(0, 300)},
                   rng.uniform(-38, -27), rng.uniform(2.5, 3.6)});
  }
  rf::LogDistanceParams params;
  params.shadowing_seed = GetParam();
  const rf::LogDistanceModel model(params);
  const svd::GridSpec spec{geo::Aabb({0, 0}, {300, 300}), 4.0};
  const svd::SvdGrid grid(aps, model, spec);

  // 1. Regions partition the domain: areas sum to the raster area.
  const double raster_area =
      static_cast<double>(grid.cols() * grid.rows()) * 16.0;
  EXPECT_NEAR(grid.total_area(), raster_area, 1e-6);

  // 2. Every region's signature is unique.
  for (svd::SvdGrid::RegionIndex r = 0; r < grid.region_count(); ++r)
    EXPECT_EQ(grid.region_of(grid.region(r).signature), r);

  // 3. Point lookup is consistent with signatures.
  for (int probe = 0; probe < 30; ++probe) {
    const geo::Point p{rng.uniform(1, 299), rng.uniform(1, 299)};
    const auto region = grid.region_at(p);
    EXPECT_EQ(grid.signature_at(p), grid.region(region).signature);
  }

  // 4. Signatures respect the expected-RSS ordering (Proposition 1),
  //    checked at region centroids that share their region.
  const auto snap_to_cell_center = [&](geo::Point p) {
    const double res = spec.resolution_m;
    const double cx = std::floor((p.x - spec.domain.min().x) / res);
    const double cy = std::floor((p.y - spec.domain.min().y) / res);
    return geo::Point{spec.domain.min().x + (cx + 0.5) * res,
                      spec.domain.min().y + (cy + 0.5) * res};
  };
  for (svd::SvdGrid::RegionIndex r = 0; r < grid.region_count(); ++r) {
    const auto& region = grid.region(r);
    if (region.signature.order() < 2) continue;
    if (!spec.domain.contains(region.centroid)) continue;
    // Signatures are computed at raster cell centers; check there.
    const geo::Point probe = snap_to_cell_center(region.centroid);
    if (!spec.domain.contains(probe)) continue;
    if (grid.region_at(probe) != r) continue;  // non-convex region
    double prev = 1e18;
    for (std::size_t i = 0; i < region.signature.order(); ++i) {
      const auto& ap = aps[region.signature.at(i).index()];
      const double rss = model.mean_rss(ap, probe);
      EXPECT_LE(rss, prev + 1e-9);
      prev = rss;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvdPartitionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// RouteSvd invariants over random roads.
// ---------------------------------------------------------------------

class RouteSvdProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteSvdProperty, IntervalsTileAndLocateIsConsistent) {
  Rng rng(GetParam());
  roadnet::RoadNetwork net;
  // A wiggly 2-edge road.
  const auto a = net.add_node({0, 0});
  const auto b = net.add_node({600, rng.uniform(-60, 60)});
  const auto c = net.add_node({1200, 0});
  const std::vector<roadnet::EdgeId> edges{
      net.add_straight_edge(a, b, 12.0), net.add_straight_edge(b, c, 12.0)};
  const roadnet::BusRoute route(roadnet::RouteId(0), "r", net, edges,
                                {{"s0", 0.0}, {"s1", 1000.0}});
  std::vector<rf::AccessPoint> aps;
  const auto n = static_cast<std::size_t>(rng.uniform_int(6, 16));
  for (std::uint32_t i = 0; i < n; ++i) {
    const double along = rng.uniform(0, 1200);
    aps.push_back({rf::ApId(i), "",
                   route.point_at(along) +
                       geo::Vec{0, rng.uniform(15, 35) *
                                       (rng.bernoulli(0.5) ? 1 : -1)},
                   rng.uniform(-38, -27), rng.uniform(2.5, 3.6)});
  }
  const rf::LogDistanceModel model{};
  const svd::RouteSvd svd(route, aps, model, {});

  // Intervals tile [0, length] with no gaps.
  double cursor = 0.0;
  for (const auto& interval : svd.intervals()) {
    EXPECT_NEAR(interval.begin, cursor, 1e-9);
    EXPECT_GT(interval.end, interval.begin);
    cursor = interval.end;
  }
  EXPECT_NEAR(cursor, route.length(), 1e-9);

  // locate() on every interval's own signature returns score-1
  // candidates containing that interval.
  for (const auto& interval : svd.intervals()) {
    if (interval.signature.size() < 2) continue;
    const auto candidates = svd.locate(std::vector<rf::ApId>(
        interval.signature.begin(), interval.signature.end()));
    ASSERT_FALSE(candidates.empty());
    EXPECT_DOUBLE_EQ(candidates.front().score, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteSvdProperty,
                         ::testing::Values(2, 4, 6, 10, 12, 18));

// ---------------------------------------------------------------------
// Mobility filter: time-monotone fixes, bounded speed.
// ---------------------------------------------------------------------

class FilterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterProperty, FixesRespectKinematicBounds) {
  Rng rng(GetParam());
  core::MobilityFilterParams params;
  core::MobilityFilter filter(params);
  double last_offset = -1.0;
  double last_time = -1.0;
  for (int i = 0; i < 200; ++i) {
    const double t = 10.0 * i;
    std::vector<svd::Candidate> candidates;
    const auto count = rng.uniform_int(0, 3);
    for (int c = 0; c < count; ++c)
      candidates.push_back(
          {rng.uniform(0, 5000), rng.uniform(0.1, 1.0)});
    const auto fix = filter.update(t, candidates);
    if (!fix.has_value()) continue;
    EXPECT_GE(fix->confidence, 0.0);
    EXPECT_LE(fix->confidence, 1.0);
    if (last_time >= 0.0) {
      const double dt = fix->time - last_time;
      EXPECT_GE(dt, 0.0);
      // Forward speed bounded by the gate (+ re-acquisition jumps are
      // allowed to exceed it only after max_coast_scans misses).
      const double forward = fix->route_offset - last_offset;
      if (forward > params.max_speed_mps * dt + params.backward_slack_m) {
        // must be a re-acquisition: confidence is halved
        EXPECT_LE(fix->confidence, 0.5);
      }
    }
    last_offset = fix->route_offset;
    last_time = fix->time;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterProperty,
                         ::testing::Values(7, 11, 19, 23, 31));

// ---------------------------------------------------------------------
// Seasonal index: Eq. 7 over random profiles.
// ---------------------------------------------------------------------

class SeasonalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeasonalProperty, SumEqualsLAndPositive) {
  Rng rng(GetParam());
  core::SeasonalIndexAnalyzer analyzer(24);
  for (int day = 0; day < 4; ++day) {
    for (int h = 0; h < 24; ++h) {
      const double tt = rng.uniform(40.0, 200.0);
      analyzer.add(roadnet::EdgeId(0), h * 3600.0 + rng.uniform(0, 3599),
                   tt);
    }
  }
  double sum = 0.0;
  for (std::size_t l = 0; l < 24; ++l) {
    const auto si = analyzer.seasonal_index(roadnet::EdgeId(0), l);
    ASSERT_TRUE(si.has_value());
    EXPECT_GT(*si, 0.0);
    sum += *si;
  }
  EXPECT_NEAR(sum, 24.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeasonalProperty,
                         ::testing::Values(3, 9, 27, 81));

// ---------------------------------------------------------------------
// Polyline projection: round-trip property over random polylines.
// ---------------------------------------------------------------------

class PolylineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolylineProperty, ProjectionRoundTrip) {
  Rng rng(GetParam());
  std::vector<geo::Point> verts;
  double x = 0.0;
  for (int i = 0; i < 12; ++i) {
    verts.push_back({x, rng.uniform(-50, 50)});
    x += rng.uniform(20, 120);
  }
  const geo::Polyline line(verts);
  for (int probe = 0; probe < 50; ++probe) {
    const double s = rng.uniform(0.0, line.length());
    const auto proj = line.project(line.point_at(s));
    EXPECT_NEAR(proj.distance, 0.0, 1e-9);
    // The offset may differ if the polyline self-approaches, but the
    // projected point must coincide spatially.
    EXPECT_NEAR(geo::distance(proj.point, line.point_at(s)), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolylineProperty,
                         ::testing::Values(5, 15, 25, 35, 45));


// ---------------------------------------------------------------------
// Predictor: Eq.-9 chaining is additive at a fixed query time.
// ---------------------------------------------------------------------

class PredictorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredictorProperty, TravelTimeChainsAdditively) {
  Rng rng(GetParam());
  roadnet::RoadNetwork net;
  std::vector<roadnet::NodeId> nodes;
  double x = 0.0;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(net.add_node({x, 0}));
    x += rng.uniform(300, 900);
  }
  std::vector<roadnet::EdgeId> edges;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    edges.push_back(net.add_straight_edge(nodes[i], nodes[i + 1], 12.5));
  const roadnet::BusRoute route(
      roadnet::RouteId(0), "r", net, edges,
      {{"s0", 0.0}, {"s1", net.bounds().width()}});

  core::TravelTimeStore store(DaySlots::paper_five_slots());
  for (int day = 0; day < 4; ++day) {
    for (const auto edge : edges) {
      store.add_history({edge, roadnet::RouteId(0),
                         at_day_time(day, hms(12)),
                         rng.uniform(40.0, 140.0)});
    }
  }
  store.finalize_history();
  const core::ArrivalPredictor predictor(store);

  // Within one slot, predict(a, c) == predict(a, b) + predict(b, t_ab)
  // where the second leg starts at the arrival time of the first — the
  // slot-by-slot chaining property of Eq. 9.
  const SimTime noon = at_day_time(10, hms(12));
  const double length = route.length();
  for (int probe = 0; probe < 25; ++probe) {
    const double a = rng.uniform(0.0, length - 2.0);
    const double c = rng.uniform(a + 1.0, length);
    const double b = rng.uniform(a, c);
    const double whole = predictor.predict_travel_time(route, a, c, noon);
    const double first = predictor.predict_travel_time(route, a, b, noon);
    const double second =
        predictor.predict_travel_time(route, b, c, noon + first);
    EXPECT_NEAR(whole, first + second, 1e-6);
    EXPECT_GE(whole, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorProperty,
                         ::testing::Values(4, 8, 16, 32, 64));

// ---------------------------------------------------------------------
// Survey index: built diagrams tile the route for random crowds.
// ---------------------------------------------------------------------

class SurveyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SurveyProperty, BuiltIntervalsAlwaysTileTheRoute) {
  Rng rng(GetParam());
  roadnet::RoadNetwork net;
  const auto a = net.add_node({0, 0});
  const auto b = net.add_node({rng.uniform(600, 1400), 0});
  const auto e = net.add_straight_edge(a, b, 12.0);
  const roadnet::BusRoute route(roadnet::RouteId(0), "r", net, {e},
                                {{"s0", 0.0},
                                 {"s1", net.edge(e).length()}});
  std::vector<rf::AccessPoint> aps;
  const auto n = static_cast<std::uint32_t>(rng.uniform_int(5, 12));
  for (std::uint32_t i = 0; i < n; ++i) {
    aps.push_back({rf::ApId(i), "",
                   {rng.uniform(0.0, route.length()),
                    rng.uniform(15.0, 40.0) * (rng.bernoulli(0.5) ? 1 : -1)},
                   rng.uniform(-36, -28), rng.uniform(2.7, 3.3)});
  }
  rf::ApRegistry registry;
  for (const auto& ap : aps)
    registry.add(ap.position, ap.tx_power_dbm, ap.path_loss_exponent);
  const rf::LogDistanceModel model{};
  const rf::Scanner scanner;

  svd::SurveyBuilder builder(route);
  for (int pass = 0; pass < 3; ++pass)
    for (double offset = 1.0; offset <= route.length(); offset += 10.0)
      builder.add_scan(offset,
                       scanner.scan(registry, model,
                                    route.point_at(offset), 0.0, rng));
  const auto index = builder.build();
  const auto* survey =
      dynamic_cast<const svd::SurveyIndex*>(index.get());
  ASSERT_NE(survey, nullptr);
  double cursor = 0.0;
  for (const auto& interval : survey->intervals()) {
    EXPECT_NEAR(interval.begin, cursor, 1e-9);
    EXPECT_GE(interval.end, interval.begin);
    cursor = interval.end;
  }
  EXPECT_NEAR(cursor, route.length(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurveyProperty,
                         ::testing::Values(6, 12, 24, 48));

}  // namespace
}  // namespace wiloc
