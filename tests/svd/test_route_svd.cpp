#include "svd/route_svd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

namespace wiloc::svd {
namespace {

using rf::AccessPoint;
using rf::ApId;

/// An interval signature as an observed ranking.
std::vector<ApId> ranking(std::span<const ApId> signature) {
  return {signature.begin(), signature.end()};
}

struct RouteFixture {
  std::unique_ptr<roadnet::RoadNetwork> net =
      std::make_unique<roadnet::RoadNetwork>();
  std::vector<roadnet::BusRoute> routes;
  std::vector<AccessPoint> aps;
  rf::LogDistanceModel model;

  explicit RouteFixture(double shadowing = 0.0)
      : model([&] {
          rf::LogDistanceParams p;
          p.shadowing_sigma_db = shadowing;
          p.fading_sigma_db = 0.0;
          return p;
        }()) {
    // A 1 km straight road with APs every 100 m alternating sides.
    const auto a = net->add_node({0, 0});
    const auto b = net->add_node({1000, 0});
    const auto e = net->add_straight_edge(a, b, 13.9);
    routes.emplace_back(
        roadnet::RouteId(0), "r", *net, std::vector<roadnet::EdgeId>{e},
        std::vector<roadnet::Stop>{{"s0", 0.0}, {"s1", 1000.0}});
    for (std::uint32_t i = 0; i < 10; ++i) {
      const double x = 50.0 + 100.0 * i;
      const double y = (i % 2 == 0) ? 20.0 : -20.0;
      aps.push_back({ApId(i), "", {x, y}, -30.0, 3.0});
    }
  }

  const roadnet::BusRoute& route() const { return routes.front(); }
};

TEST(RouteSvd, IntervalsTileTheRoute) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  const auto& intervals = svd.intervals();
  ASSERT_FALSE(intervals.empty());
  EXPECT_DOUBLE_EQ(intervals.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(intervals.back().end, 1000.0);
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    EXPECT_DOUBLE_EQ(intervals[i].begin, intervals[i - 1].end);
    // Adjacent intervals have different signatures (maximal runs).
    EXPECT_FALSE(std::ranges::equal(intervals[i].signature,
                                    intervals[i - 1].signature));
  }
}

TEST(RouteSvd, SignatureAtMatchesIntervals) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  for (const auto& interval : svd.intervals()) {
    EXPECT_TRUE(std::ranges::equal(svd.signature_at(interval.mid()),
                                   interval.signature));
  }
}

TEST(RouteSvd, Proposition1RssOrderedWithinTile) {
  // Within each tile, the expected RSS of the signature's APs is in
  // non-increasing order at the tile midpoint.
  const RouteFixture f(/*shadowing=*/3.0);
  RouteSvdParams params;
  params.order = 3;
  const RouteSvd svd(f.route(), f.aps, f.model, params);
  for (const auto& interval : svd.intervals()) {
    const geo::Point p = f.route().point_at(interval.mid());
    double prev = 1e9;
    for (const ApId id : interval.signature) {
      const auto& ap = f.aps[id.index()];
      const double rss = f.model.mean_rss(ap, p);
      EXPECT_LE(rss, prev + 1e-9);
      prev = rss;
    }
  }
}

TEST(RouteSvd, ExactSignatureLocatesTile) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  // Probe the middle of each interval with its own signature.
  for (const auto& interval : svd.intervals()) {
    if (interval.signature.size() < 2) continue;
    const auto candidates = svd.locate(ranking(interval.signature));
    ASSERT_FALSE(candidates.empty());
    EXPECT_DOUBLE_EQ(candidates.front().score, 1.0);
    // One of the exact candidates is this interval's midpoint.
    bool found = false;
    for (const auto& c : candidates)
      if (std::abs(c.route_offset - interval.mid()) < 1e-9) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(RouteSvd, LocateEmptyObservation) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  EXPECT_TRUE(svd.locate({}).empty());
}

TEST(RouteSvd, LocateUnknownApsOnly) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  EXPECT_TRUE(svd.locate({ApId(90), ApId(91)}).empty());
}

TEST(RouteSvd, FilterOutUnknownApsBeforeMatching) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  const auto& interval = svd.intervals()[svd.intervals().size() / 2];
  if (interval.signature.size() < 2) GTEST_SKIP();
  // Prepend a brand-new AP (not in the diagram): locate must still find
  // the tile exactly.
  std::vector<ApId> observed{ApId(99)};
  for (const ApId ap : interval.signature) observed.push_back(ap);
  const auto candidates = svd.locate(observed);
  ASSERT_FALSE(candidates.empty());
  EXPECT_DOUBLE_EQ(candidates.front().score, 1.0);
}

TEST(RouteSvd, DegradedMatchAfterApFailure) {
  // The paper's Section III-B scenario: the strongest AP dies; ranks of
  // the remaining APs still localize the bus nearby.
  const RouteFixture f;
  RouteSvdParams params;
  params.order = 3;
  const RouteSvd svd(f.route(), f.aps, f.model, params);
  const double probe = 430.0;
  // Full ranking at the probe point from the model.
  const geo::Point p = f.route().point_at(probe);
  std::vector<std::pair<double, ApId>> ranked;
  for (const auto& ap : f.aps)
    ranked.emplace_back(f.model.mean_rss(ap, p), ap.id);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ApId> observed;
  for (std::size_t i = 1; i < ranked.size(); ++i)  // drop the strongest
    observed.push_back(ranked[i].second);
  const auto candidates = svd.locate(observed);
  ASSERT_FALSE(candidates.empty());
  // The best candidate should be within a couple of tiles of the truth.
  EXPECT_LT(std::abs(candidates.front().route_offset - probe), 170.0);
}

TEST(RouteSvd, HigherOrderGivesFinerIntervals) {
  const RouteFixture f;
  double prev_mean = 1e18;
  for (const std::size_t order : {1u, 2u, 3u}) {
    RouteSvdParams params;
    params.order = order;
    const RouteSvd svd(f.route(), f.aps, f.model, params);
    EXPECT_LT(svd.mean_interval_length(), prev_mean);
    prev_mean = svd.mean_interval_length();
  }
}

TEST(RouteSvd, CandidateCap) {
  const RouteFixture f;
  RouteSvdParams params;
  params.max_candidates = 2;
  const RouteSvd svd(f.route(), f.aps, f.model, params);
  // A noisy observation triggers the scored path; at most 2 candidates.
  const auto candidates = svd.locate({ApId(0), ApId(5), ApId(9)});
  EXPECT_LE(candidates.size(), 2u);
}

TEST(RouteSvd, ValidatesParams) {
  const RouteFixture f;
  RouteSvdParams bad;
  bad.order = 0;
  EXPECT_THROW(RouteSvd(f.route(), f.aps, f.model, bad),
               ContractViolation);
  RouteSvdParams bad2;
  bad2.sample_step_m = 0.0;
  EXPECT_THROW(RouteSvd(f.route(), f.aps, f.model, bad2),
               ContractViolation);
}

TEST(RouteSvd, RouteLengthAccessor) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  EXPECT_DOUBLE_EQ(svd.route_length(), 1000.0);
}

TEST(RouteSvd, PostingListsInvertTheIntervalSignatures) {
  const RouteFixture f;
  RouteSvdParams params;
  params.order = 3;
  const RouteSvd svd(f.route(), f.aps, f.model, params);
  const auto& intervals = svd.intervals();

  // Every (interval, signature AP) pair appears in that AP's posting
  // list, and lists are strictly ascending (each interval id once).
  std::size_t expected_postings = 0;
  for (std::uint32_t i = 0; i < intervals.size(); ++i) {
    expected_postings += intervals[i].signature.size();
    for (const ApId ap : intervals[i].signature) {
      const auto list = svd.postings_for(ap);
      EXPECT_TRUE(std::binary_search(list.begin(), list.end(), i))
          << "interval " << i << " missing from postings of AP "
          << ap.value();
    }
  }
  std::size_t total_postings = 0;
  for (const auto& ap : f.aps) {
    const auto list = svd.postings_for(ap.id);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    EXPECT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
    for (const std::uint32_t idx : list) {
      ASSERT_LT(idx, intervals.size());
      // Round trip: the interval's signature really contains the AP.
      const auto aps = intervals[idx].signature;
      EXPECT_NE(std::find(aps.begin(), aps.end(), ap.id), aps.end());
    }
    total_postings += list.size();
  }
  EXPECT_EQ(total_postings, expected_postings);
}

TEST(RouteSvd, PostingsForForeignApIsEmpty) {
  const RouteFixture f;
  const RouteSvd svd(f.route(), f.aps, f.model, {});
  EXPECT_TRUE(svd.postings_for(ApId(999)).empty());  // out of range
  // An AP that exists but was never audible anywhere still answers.
  EXPECT_LE(svd.postings_for(ApId(0)).size(), svd.intervals().size());
}

TEST(RouteSvd, HeapBytesPerIntervalWorkBudget) {
  // The index is four flat arrays and an AP bitmap, each allocated at
  // its exact size. Per interval: one begin offset, one rank row of
  // `order` ids and one posting per signature AP; per construction AP:
  // one posting offset and one bit.
  const RouteFixture f;
  for (const std::size_t order : {1u, 2u, 3u}) {
    SCOPED_TRACE("order " + std::to_string(order));
    RouteSvdParams params;
    params.order = order;
    const RouteSvd svd(f.route(), f.aps, f.model, params);
    const std::size_t n = svd.interval_count();
    std::size_t postings = 0;
    for (const auto& interval : svd.intervals())
      postings += interval.signature.size();
    const std::size_t aps = f.aps.size();
    const std::size_t bitmap_bytes = (aps + 63) / 64 * 8;
    EXPECT_EQ(svd.heap_bytes(),
              (n + 1) * sizeof(double) + n * order * sizeof(ApId) +
                  (aps + 1 + postings) * sizeof(std::uint32_t) +
                  bitmap_bytes);
    // At most 8 + 8 * order bytes per interval, plus the AP terms.
    EXPECT_LE(svd.heap_bytes(),
              n * (8 + 8 * order) + 8 + (aps + 1) * 4 + bitmap_bytes);
  }
}

TEST(RouteSvd, PrefilteredLocateMatchesExhaustiveScoring) {
  // The posting-list prefilter must be invisible: for any observation,
  // locate() equals the reference that scores every interval.
  const RouteFixture f;
  RouteSvdParams params;
  params.order = 3;
  const RouteSvd svd(f.route(), f.aps, f.model, params);

  const auto reference = [&](const std::vector<ApId>& observed) {
    std::vector<std::pair<double, std::uint32_t>> scored;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(svd.intervals().size()); ++i) {
      const double s =
          rank_consistency(observed, svd.intervals()[i].signature);
      if (s >= params.min_fallback_score) scored.emplace_back(s, i);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (scored.size() > params.max_candidates)
      scored.resize(params.max_candidates);
    std::vector<Candidate> out;
    for (const auto& [s, i] : scored)
      out.push_back({svd.intervals()[i].mid(), s});
    return out;
  };

  // Degraded observations: each interval's signature minus its strongest
  // AP (guaranteed exact-lookup miss), plus a few scrambled rankings.
  std::vector<std::vector<ApId>> probes;
  for (const auto& interval : svd.intervals()) {
    if (interval.signature.size() < 3) continue;
    const auto aps = interval.signature;
    probes.emplace_back(aps.begin() + 1, aps.end());
  }
  probes.push_back({ApId(9), ApId(0), ApId(5)});
  probes.push_back({ApId(3), ApId(7)});
  ASSERT_FALSE(probes.empty());

  for (const auto& observed : probes) {
    const auto got = svd.locate(observed);
    const auto want = reference(observed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].route_offset, want[i].route_offset);
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(RouteSvd, DeadApDegradedSignatureStillFoundThroughPrefilter) {
  // All observed APs lost their strongest neighbour: the posting union
  // still contains the true interval, so locate() finds it.
  const RouteFixture f;
  RouteSvdParams params;
  params.order = 3;
  const RouteSvd svd(f.route(), f.aps, f.model, params);
  for (const auto& interval : svd.intervals()) {
    if (interval.signature.size() < 3) continue;
    const auto aps = interval.signature;
    const std::vector<ApId> degraded(aps.begin() + 1, aps.end());
    const auto candidates = svd.locate(degraded);
    ASSERT_FALSE(candidates.empty());
    bool found = false;
    for (const auto& c : candidates)
      if (std::abs(c.route_offset - interval.mid()) < 1e-9) found = true;
    EXPECT_TRUE(found) << "interval at " << interval.mid();
  }
}

}  // namespace
}  // namespace wiloc::svd
