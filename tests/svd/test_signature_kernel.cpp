// Parity of the SVD signature kernel against a brute-force reference.
//
// SignatureKernel reuses one AP neighbourhood for nearby samples, skips
// APs beyond their own hearing range, and skips the exact expected-RSS
// evaluation for APs whose path-loss bound (+-shadowing sigma) rules
// them out of the ranking. The reference below ranks every AP of the
// city on the exact field with a full sort, so any pruning that drops a
// rankable AP, a stale neighbourhood, or any change to the tie order
// shows up as a differing signature.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/city.hpp"
#include "svd/ap_index.hpp"
#include "svd/grid_svd.hpp"
#include "svd/route_svd.hpp"

namespace wiloc::svd {
namespace {

using rf::AccessPoint;
using rf::ApId;

constexpr double kFloorDbm = -95.0;
constexpr std::size_t kOrders[] = {1, 2, 4};

/// Every audible AP at x, strongest first (ties by id), from the exact
/// mean_rss of every AP in the set.
std::vector<ApId> reference_ranking(const std::vector<AccessPoint>& aps,
                                    const rf::LogDistanceModel& model,
                                    geo::Point x) {
  std::vector<std::pair<double, ApId>> audible;
  for (const AccessPoint& ap : aps) {
    const double rss = model.mean_rss(ap, x);
    if (rss >= kFloorDbm) audible.emplace_back(rss, ap.id);
  }
  std::sort(audible.begin(), audible.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<ApId> ids;
  ids.reserve(audible.size());
  for (const auto& [rss, id] : audible) ids.push_back(id);
  return ids;
}

/// A reference interval: an owning signature and its route bounds.
struct SignatureRun {
  RankSignature signature;
  double begin;
  double end;
};

/// An index's interval signature as an owning RankSignature.
RankSignature owned(std::span<const ApId> signature) {
  return RankSignature(std::vector<ApId>(signature.begin(), signature.end()));
}

sim::City city_with_shadowing(double sigma_db) {
  sim::CityParams params;
  params.rf.shadowing_sigma_db = sigma_db;
  return sim::build_paper_city(params);
}

/// Counts kernel/reference disagreements and keeps the first for the
/// failure message (one EXPECT per sample would flood the log).
struct Mismatches {
  std::size_t count = 0;
  std::string first;

  void fail(const std::string& what) {
    if (count++ == 0) first = what;
  }
  void check(const RankSignature& got, const RankSignature& want,
             const std::string& where) {
    if (!(got == want))
      fail(where + ": got " + got.to_string() + ", reference " +
           want.to_string());
  }
};

class SignatureKernelParity : public ::testing::TestWithParam<double> {};

TEST_P(SignatureKernelParity, RouteSamplesAndIntervalsMatchReference) {
  const sim::City city = city_with_shadowing(GetParam());
  const std::vector<AccessPoint> aps = city.ap_snapshot();
  const rf::LogDistanceModel& model = *city.rf_model;

  std::vector<SignatureKernel> kernels;
  for (const std::size_t order : kOrders)
    kernels.emplace_back(aps, model, kFloorDbm, order);

  Mismatches samples;
  Mismatches intervals;
  std::size_t checked = 0;
  for (const roadnet::BusRoute& route : city.routes) {
    // The exact sampling RouteSvd performs at its default 1 m step.
    const double length = route.length();
    const auto steps =
        static_cast<std::size_t>(std::ceil(length / RouteSvdParams{}
                                                        .sample_step_m));
    std::vector<std::vector<SignatureRun>> expected(
        std::size(kOrders));
    for (std::size_t i = 0; i <= steps; ++i) {
      const double offset =
          length * static_cast<double>(i) / static_cast<double>(steps);
      const geo::Point x = route.point_at(offset);
      const std::vector<ApId> ranking = reference_ranking(aps, model, x);
      for (std::size_t o = 0; o < std::size(kOrders); ++o) {
        RankSignature want = RankSignature::top_k(ranking, kOrders[o]);
        samples.check(kernels[o].at(x), want,
                      route.name() + " @" + std::to_string(offset) +
                          " order " + std::to_string(kOrders[o]));
        // Coalesce equal-signature runs exactly like RouteSvd does.
        auto& runs = expected[o];
        if (runs.empty()) {
          runs.push_back({std::move(want), 0.0, length});
        } else if (!(want == runs.back().signature)) {
          runs.back().end = offset;
          runs.push_back({std::move(want), offset, length});
        }
      }
      ++checked;
    }
    for (std::size_t o = 0; o < std::size(kOrders); ++o) {
      RouteSvdParams params;
      params.order = kOrders[o];
      const RouteSvd built(route, aps, model, params);
      const auto& got = built.intervals();
      const auto& want = expected[o];
      const std::string where =
          route.name() + " order " + std::to_string(kOrders[o]);
      if (got.size() != want.size()) {
        intervals.fail(where + ": " + std::to_string(got.size()) +
                       " intervals, reference " +
                       std::to_string(want.size()));
        continue;
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        intervals.check(owned(got[i].signature), want[i].signature,
                        where + " interval " + std::to_string(i));
        if (got[i].begin != want[i].begin || got[i].end != want[i].end)
          intervals.fail(where + ": bounds of interval " + std::to_string(i));
      }
    }
  }
  EXPECT_GT(checked, 10000u);
  EXPECT_EQ(samples.count, 0u) << samples.first;
  EXPECT_EQ(intervals.count, 0u) << intervals.first;
}

TEST_P(SignatureKernelParity, WalksJumpsAndReversalsMatchReference) {
  const sim::City city = city_with_shadowing(GetParam());
  const std::vector<AccessPoint> aps = city.ap_snapshot();
  const rf::LogDistanceModel& model = *city.rf_model;
  const roadnet::BusRoute& route = city.route_by_name("Rapid");

  // Route offsets: a 1 m walk that reuses the neighbourhood, a reversal
  // back over it, steps just inside and just beyond the 32 m reuse
  // radius, long jumps both ways, and a reversal after each jump.
  std::vector<double> offsets;
  double at = route.length() / 3.0;
  const auto walk = [&](double step, int count) {
    for (int i = 0; i < count; ++i) offsets.push_back(at += step);
  };
  walk(1.0, 80);
  walk(-1.0, 120);
  walk(31.9, 6);
  walk(32.1, 6);
  walk(-45.0, 4);
  walk(250.0, 3);
  walk(-1.0, 40);
  walk(-700.0, 2);
  walk(3.0, 40);
  walk(1500.0, 1);
  walk(-0.5, 40);

  std::vector<SignatureKernel> kernels;
  for (const std::size_t order : kOrders)
    kernels.emplace_back(aps, model, kFloorDbm, order);
  Mismatches samples;
  for (const double offset : offsets) {
    const geo::Point x = route.point_at(offset);
    const std::vector<ApId> ranking = reference_ranking(aps, model, x);
    for (std::size_t o = 0; o < std::size(kOrders); ++o)
      samples.check(kernels[o].at(x), RankSignature::top_k(ranking, kOrders[o]),
                    "offset " + std::to_string(offset) + " order " +
                        std::to_string(kOrders[o]));
  }
  EXPECT_EQ(samples.count, 0u) << samples.first;
  // The walk reused neighbourhoods and the jumps forced fresh ones.
  for (const SignatureKernel& kernel : kernels) {
    EXPECT_LT(kernel.queries(), offsets.size() / 4);
    EXPECT_GT(kernel.queries(), 12u);
  }
}

TEST_P(SignatureKernelParity, GridCellsMatchReference) {
  const sim::City city = city_with_shadowing(GetParam());
  const std::vector<AccessPoint> aps = city.ap_snapshot();
  const rf::LogDistanceModel& model = *city.rf_model;

  // A 600 m square around the middle of the Rapid line at 6 m cells, and
  // a 180 m x 120 m patch at SvdGrid's default 2 m cells: dozens of cells
  // per reused neighbourhood, and every row wraps back further than the
  // reuse radius.
  const roadnet::BusRoute& route = city.route_by_name("Rapid");
  const geo::Point mid = route.point_at(route.length() / 2.0);
  const geo::Point quarter = route.point_at(route.length() / 4.0);
  const GridSpec specs[] = {
      {geo::Aabb({mid.x - 300.0, mid.y - 300.0},
                 {mid.x + 300.0, mid.y + 300.0}),
       6.0},
      {geo::Aabb({quarter.x - 90.0, quarter.y - 60.0},
                 {quarter.x + 90.0, quarter.y + 60.0}),
       2.0},
  };

  Mismatches cells;
  for (const GridSpec& spec : specs) {
    std::vector<SvdGrid> grids;
    std::vector<SignatureKernel> kernels;
    for (const std::size_t order : kOrders) {
      SvdGridParams params;
      params.order = order;
      params.floor_dbm = kFloorDbm;
      grids.emplace_back(aps, model, spec, params);
      kernels.emplace_back(aps, model, kFloorDbm, order);
    }

    const SvdGrid& grid = grids.front();
    for (std::size_t cy = 0; cy < grid.rows(); ++cy) {
      for (std::size_t cx = 0; cx < grid.cols(); ++cx) {
        const geo::Point center{
            spec.domain.min().x +
                (static_cast<double>(cx) + 0.5) * spec.resolution_m,
            spec.domain.min().y +
                (static_cast<double>(cy) + 0.5) * spec.resolution_m};
        const std::vector<ApId> ranking =
            reference_ranking(aps, model, center);
        for (std::size_t o = 0; o < std::size(kOrders); ++o) {
          const RankSignature want =
              RankSignature::top_k(ranking, kOrders[o]);
          std::ostringstream where;
          where << spec.resolution_m << " m cell (" << cx << "," << cy
                << ") order " << kOrders[o];
          cells.check(kernels[o].at(center), want, where.str() + " kernel");
          cells.check(grids[o].signature_at(center), want,
                      where.str() + " grid");
        }
      }
    }
  }
  EXPECT_EQ(cells.count, 0u) << cells.first;
}

INSTANTIATE_TEST_SUITE_P(
    Shadowing, SignatureKernelParity,
    ::testing::Values(0.0, rf::LogDistanceParams{}.shadowing_sigma_db),
    [](const ::testing::TestParamInfo<double>& info) {
      return info.param == 0.0 ? std::string("NoShadowing")
                               : std::string("DefaultShadowing");
    });

/// RouteSvd's 1 m sample offsets along `route`.
std::vector<double> route_sample_offsets(const roadnet::BusRoute& route) {
  const double length = route.length();
  const auto steps = static_cast<std::size_t>(
      std::ceil(length / RouteSvdParams{}.sample_step_m));
  std::vector<double> offsets;
  for (std::size_t i = 0; i <= steps; ++i)
    offsets.push_back(length * static_cast<double>(i) /
                      static_cast<double>(steps));
  return offsets;
}

TEST(SignatureKernel, RouteIntervalsMatchFreshKernelPerSample) {
  // A fresh kernel for each sample (a copy of one that never ran) has
  // no neighbourhood to reuse; the intervals of every paper route must
  // agree with it field by field.
  const sim::City city = sim::build_paper_city();
  std::vector<AccessPoint> aps = city.ap_snapshot();
  // The ranking never reads a BSSID; dropping them keeps the per-sample
  // kernel copies cheap.
  for (AccessPoint& ap : aps) ap.bssid.clear();
  const rf::LogDistanceModel& model = *city.rf_model;
  const RouteSvdParams params;
  const SignatureKernel unused(aps, model, params.floor_dbm, params.order);
  ASSERT_EQ(city.routes.size(), 4u);
  for (const roadnet::BusRoute& route : city.routes) {
    std::vector<SignatureRun> want;
    for (const double offset : route_sample_offsets(route)) {
      SignatureKernel fresh = unused;
      RankSignature sig = fresh.at(route.point_at(offset));
      ASSERT_EQ(fresh.queries(), 1u);
      if (want.empty()) {
        want.push_back({std::move(sig), 0.0, route.length()});
      } else if (!(sig == want.back().signature)) {
        want.back().end = offset;
        want.push_back({std::move(sig), offset, route.length()});
      }
    }
    const RouteSvd built(route, aps, model, params);
    const auto& got = built.intervals();
    ASSERT_EQ(got.size(), want.size()) << route.name();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(owned(got[i].signature), want[i].signature)
          << route.name() << " interval " << i;
      EXPECT_EQ(got[i].begin, want[i].begin)
          << route.name() << " interval " << i;
      EXPECT_EQ(got[i].end, want[i].end) << route.name() << " interval " << i;
    }
  }
}

TEST(SignatureKernel, WorkBudgetPerRouteSample) {
  // Work-budget pin: ApIndex queries and path-loss terms per RouteSvd
  // sample on the paper city at the paper's order 2. Querying at every
  // sample costs 1 query and ~28.7 path-loss terms per sample; reusing
  // the neighbourhood (~0.030 queries) and pruning by each AP's own
  // hearing range (~9.6 terms) is what keeps both under their bounds.
  const sim::City city = sim::build_paper_city();
  const std::vector<AccessPoint> aps = city.ap_snapshot();
  std::uint64_t samples = 0;
  std::uint64_t queries = 0;
  std::uint64_t path_loss_evals = 0;
  for (const roadnet::BusRoute& route : city.routes) {
    SignatureKernel kernel(aps, *city.rf_model, kFloorDbm, 2);
    for (const double offset : route_sample_offsets(route))
      kernel.at(route.point_at(offset));
    samples += route_sample_offsets(route).size();
    queries += kernel.queries();
    path_loss_evals += kernel.path_loss_evals();
  }
  ASSERT_GT(samples, 60000u);
  const double queries_per_sample =
      static_cast<double>(queries) / static_cast<double>(samples);
  const double evals_per_sample =
      static_cast<double>(path_loss_evals) / static_cast<double>(samples);
  RecordProperty("queries_per_sample", std::to_string(queries_per_sample));
  RecordProperty("path_loss_evals_per_sample",
                 std::to_string(evals_per_sample));
  EXPECT_LE(queries_per_sample, 0.05) << "queries per sample";
  EXPECT_LE(evals_per_sample, 12.0) << "path-loss terms per sample";
}

TEST(SignatureKernel, RejectsZeroOrder) {
  const rf::LogDistanceModel model;
  EXPECT_THROW(SignatureKernel({}, model, kFloorDbm, 0), ContractViolation);
}

TEST(SignatureKernel, EmptyWhenNothingIsAudible) {
  const rf::LogDistanceModel model;
  SignatureKernel kernel({{ApId(3), "", {0, 0}, -30.0, 3.0}}, model,
                         kFloorDbm, 2);
  EXPECT_EQ(kernel.at({0, 1}), RankSignature({ApId(3)}));
  EXPECT_TRUE(kernel.at({1.0e6, 1.0e6}).empty());
}

}  // namespace
}  // namespace wiloc::svd
