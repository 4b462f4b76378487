// RouteSvd's flat layout against the map-based index it replaced.
//
// The map-based index kept one owning RankSignature per interval, an
// unordered_map from signature to interval ids for the exact lookup and
// one heap list per AP posting. Its construction and locate() live on
// here as the reference. Over a seeded corpus on the MiniCity routes,
// orders 1-5, locate() must return the same candidates (bit-equal
// offsets and scores, same order) and bump the same LocateMetrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "../helpers.hpp"
#include "svd/ap_index.hpp"
#include "svd/route_svd.hpp"
#include "util/rng.hpp"

namespace wiloc::svd {
namespace {

using rf::ApId;

/// The RouteSvd layout before the flat arrays, locate() included.
class MapRouteSvd {
 public:
  struct Interval {
    RankSignature signature;
    double begin;
    double end;
    double mid() const { return (begin + end) / 2.0; }
  };

  MapRouteSvd(const roadnet::BusRoute& route,
              std::vector<rf::AccessPoint> aps,
              const rf::LogDistanceModel& model, RouteSvdParams params)
      : params_(params), length_(route.length()) {
    std::uint32_t max_ap = 0;
    for (const auto& ap : aps) max_ap = std::max(max_ap, ap.id.value());
    known_aps_.assign(aps.empty() ? 0 : max_ap + 1, false);
    for (const auto& ap : aps) known_aps_[ap.id.value()] = true;

    SignatureKernel kernel(std::move(aps), model, params_.floor_dbm,
                           params_.order);
    const auto steps = static_cast<std::size_t>(
        std::ceil(length_ / params_.sample_step_m));
    RankSignature current = kernel.at(route.point_at(0.0));
    double run_begin = 0.0;
    for (std::size_t i = 1; i <= steps; ++i) {
      const double offset =
          length_ * static_cast<double>(i) / static_cast<double>(steps);
      RankSignature sig = kernel.at(route.point_at(offset));
      if (!(sig == current)) {
        intervals_.push_back({std::move(current), run_begin, offset});
        current = std::move(sig);
        run_begin = offset;
      }
    }
    intervals_.push_back({std::move(current), run_begin, length_});
    for (std::uint32_t i = 0; i < intervals_.size(); ++i)
      by_signature_[intervals_[i].signature].push_back(i);
    postings_.resize(known_aps_.size());
    for (std::uint32_t i = 0; i < intervals_.size(); ++i)
      for (const ApId ap : intervals_[i].signature.aps())
        postings_[ap.index()].push_back(i);
  }

  const std::vector<Interval>& intervals() const { return intervals_; }

  void set_metrics(const LocateMetrics& metrics) { metrics_ = metrics; }

  std::vector<Candidate> locate(const std::vector<ApId>& observed) const {
    std::vector<ApId> filtered;
    for (const ApId ap : observed)
      if (ap.index() < known_aps_.size() && known_aps_[ap.index()])
        filtered.push_back(ap);
    if (filtered.empty()) {
      if (metrics_.misses != nullptr) metrics_.misses->inc();
      if (metrics_.candidates != nullptr) metrics_.candidates->record(0.0);
      return {};
    }
    if (memo_valid_ && memo_key_ == filtered) {
      if (metrics_.memo_hits != nullptr) metrics_.memo_hits->inc();
      if (memo_outcome_ == Outcome::kFast) {
        if (metrics_.fast_path_hits != nullptr)
          metrics_.fast_path_hits->inc();
      } else if (memo_outcome_ == Outcome::kFallback) {
        if (metrics_.fallback_hits != nullptr) metrics_.fallback_hits->inc();
      } else if (metrics_.misses != nullptr) {
        metrics_.misses->inc();
      }
      if (metrics_.candidates != nullptr)
        metrics_.candidates->record(static_cast<double>(memo_result_.size()));
      return memo_result_;
    }
    const auto remember = [&](Outcome outcome,
                              const std::vector<Candidate>& result) {
      memo_valid_ = true;
      memo_key_ = filtered;
      memo_result_ = result;
      memo_outcome_ = outcome;
    };

    std::vector<Candidate> out;
    const RankSignature key = RankSignature::top_k(filtered, params_.order);
    if (const auto it = by_signature_.find(key); it != by_signature_.end()) {
      for (const std::uint32_t idx : it->second)
        out.push_back({intervals_[idx].mid(), 1.0});
      if (out.size() > params_.max_candidates)
        out.resize(params_.max_candidates);
      if (metrics_.fast_path_hits != nullptr) metrics_.fast_path_hits->inc();
      if (metrics_.candidates != nullptr)
        metrics_.candidates->record(static_cast<double>(out.size()));
      remember(Outcome::kFast, out);
      return out;
    }

    std::vector<std::pair<double, std::uint32_t>> scored;
    if (params_.min_fallback_score > 0.0) {
      std::vector<std::uint32_t> candidates;
      std::vector<bool> seen(intervals_.size(), false);
      for (const ApId ap : filtered)
        for (const std::uint32_t idx : postings_[ap.index()])
          if (!seen[idx]) {
            seen[idx] = true;
            candidates.push_back(idx);
          }
      for (const std::uint32_t idx : candidates) {
        const double s =
            rank_consistency(filtered, intervals_[idx].signature);
        if (s >= params_.min_fallback_score) scored.emplace_back(s, idx);
      }
    } else {
      for (std::uint32_t i = 0; i < intervals_.size(); ++i) {
        const double s = rank_consistency(filtered, intervals_[i].signature);
        if (s >= params_.min_fallback_score) scored.emplace_back(s, i);
      }
    }
    const std::size_t take = std::min(params_.max_candidates, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(take),
                      scored.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    for (std::size_t i = 0; i < take; ++i)
      out.push_back({intervals_[scored[i].second].mid(), scored[i].first});
    if (out.empty()) {
      if (metrics_.misses != nullptr) metrics_.misses->inc();
    } else if (metrics_.fallback_hits != nullptr) {
      metrics_.fallback_hits->inc();
    }
    if (metrics_.candidates != nullptr)
      metrics_.candidates->record(static_cast<double>(out.size()));
    remember(out.empty() ? Outcome::kMiss : Outcome::kFallback, out);
    return out;
  }

 private:
  enum class Outcome { kFast, kFallback, kMiss };

  LocateMetrics metrics_;
  RouteSvdParams params_;
  double length_ = 0.0;
  std::vector<Interval> intervals_;
  std::unordered_map<RankSignature, std::vector<std::uint32_t>,
                     RankSignatureHash>
      by_signature_;
  std::vector<bool> known_aps_;
  std::vector<std::vector<std::uint32_t>> postings_;
  // The one-entry memo of the previous call (single-threaded here).
  mutable bool memo_valid_ = false;
  mutable std::vector<ApId> memo_key_;
  mutable std::vector<Candidate> memo_result_;
  mutable Outcome memo_outcome_ = Outcome::kFast;
};

/// One side's LocateMetrics handles.
struct Counters {
  obs::Counter fast, fallback, misses, memo;
  obs::HistogramMetric candidates;

  LocateMetrics metrics() {
    return {&fast, &fallback, &misses, &candidates, &memo};
  }
};

/// Empty when both sides counted the same; otherwise the first difference.
std::string counters_diff(const Counters& got, const Counters& want) {
  const auto check = [](const char* name, std::uint64_t g, std::uint64_t w) {
    return g == w ? std::string()
                  : std::string(name) + " " + std::to_string(g) + " vs " +
                        std::to_string(w);
  };
  for (const std::string& d :
       {check("fast_path_hits", got.fast.value(), want.fast.value()),
        check("fallback_hits", got.fallback.value(), want.fallback.value()),
        check("misses", got.misses.value(), want.misses.value()),
        check("memo_hits", got.memo.value(), want.memo.value())})
    if (!d.empty()) return d;
  const obs::HistogramSnapshot g = got.candidates.snapshot();
  const obs::HistogramSnapshot w = want.candidates.snapshot();
  if (g.total != w.total || g.sum != w.sum ||
      g.buckets.size() != w.buckets.size())
    return "candidate histogram";
  for (std::size_t i = 0; i < g.buckets.size(); ++i)
    if (g.buckets[i].index != w.buckets[i].index ||
        g.buckets[i].count != w.buckets[i].count)
      return "candidate histogram bucket " + std::to_string(i);
  return {};
}

/// Empty when the candidate lists are equal bit for bit.
std::string candidates_diff(const std::vector<Candidate>& got,
                            const std::vector<Candidate>& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " candidates vs " +
           std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i].route_offset) !=
            std::bit_cast<std::uint64_t>(want[i].route_offset) ||
        std::bit_cast<std::uint64_t>(got[i].score) !=
            std::bit_cast<std::uint64_t>(want[i].score))
      return "candidate " + std::to_string(i);
  return {};
}

std::string to_string(const std::vector<ApId>& ranking) {
  std::string out = "[";
  for (const ApId ap : ranking) out += std::to_string(ap.value()) + " ";
  return out + "]";
}

/// Uniform in [0, n); n > 0.
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// The seeded corpus for one index: per interval its exact signature,
/// then variants built from it (extra trailing APs, a rank flip, a
/// dropped AP, unknown APs mixed in, a ranking cut below the order),
/// plus empty and unknown-only scans and shuffled universe rankings.
/// Every fourth query is followed by a replay of itself (the memo) and
/// some by an A-B-A pattern.
std::vector<std::vector<ApId>> corpus(const MapRouteSvd& reference,
                                      const std::vector<ApId>& universe,
                                      std::size_t order, Rng& rng) {
  std::vector<std::vector<ApId>> out;
  const auto add = [&](std::vector<ApId> ranking) {
    out.push_back(ranking);
    if (pick(rng, 4) == 0) out.push_back(ranking);  // memo replay
    if (pick(rng, 8) == 0 && out.size() >= 3)       // A-B-A
      out.push_back(out[out.size() - 2]);
  };
  const auto others = [&](const std::vector<ApId>& ranking, std::size_t n) {
    std::vector<ApId> tail;
    for (std::size_t tries = 0; tail.size() < n && tries < 4 * n; ++tries) {
      const ApId ap = universe[pick(rng, universe.size())];
      if (std::find(ranking.begin(), ranking.end(), ap) == ranking.end() &&
          std::find(tail.begin(), tail.end(), ap) == tail.end())
        tail.push_back(ap);
    }
    return tail;
  };
  for (const auto& interval : reference.intervals()) {
    const std::vector<ApId>& exact = interval.signature.aps();
    add(exact);
    if (exact.empty()) continue;
    std::vector<ApId> longer = exact;
    for (const ApId ap : others(exact, 1 + pick(rng, 6))) longer.push_back(ap);
    add(longer);
    if (exact.size() >= 2) {
      std::vector<ApId> flipped = longer;
      const std::size_t at = pick(rng, exact.size() - 1);
      std::swap(flipped[at], flipped[at + 1]);
      add(flipped);
    }
    std::vector<ApId> dropped = longer;
    dropped.erase(dropped.begin() +
                  static_cast<std::ptrdiff_t>(pick(rng, exact.size())));
    add(dropped);
    std::vector<ApId> unknown = longer;
    for (int u = 0; u < 2; ++u)
      unknown.insert(unknown.begin() + static_cast<std::ptrdiff_t>(
                                           pick(rng, unknown.size() + 1)),
                     ApId(static_cast<std::uint32_t>(5000 + pick(rng, 50))));
    add(unknown);
    if (order >= 2) {
      const std::size_t cut = 1 + pick(rng, std::min(order - 1, exact.size()));
      add(std::vector<ApId>(exact.begin(),
                            exact.begin() + static_cast<std::ptrdiff_t>(cut)));
    }
  }
  add({});
  add({ApId(5000), ApId(5001)});
  std::vector<ApId> shuffled = universe;
  for (int i = 0; i < 200; ++i) {
    rng.shuffle(shuffled);
    add(std::vector<ApId>(
        shuffled.begin(),
        shuffled.begin() + static_cast<std::ptrdiff_t>(
                               1 + pick(rng, std::min<std::size_t>(
                                                 12, shuffled.size())))));
  }
  return out;
}

void expect_parity(const roadnet::BusRoute& route,
                   const std::vector<rf::AccessPoint>& aps,
                   const rf::LogDistanceModel& model,
                   const RouteSvdParams& params, Rng& rng) {
  SCOPED_TRACE(route.name() + " order " + std::to_string(params.order) +
               " min_fallback_score " +
               std::to_string(params.min_fallback_score));
  MapRouteSvd reference(route, aps, model, params);
  RouteSvd index(route, aps, model, params);
  Counters want_counts, got_counts;
  reference.set_metrics(want_counts.metrics());
  index.set_metrics(got_counts.metrics());

  ASSERT_EQ(index.interval_count(), reference.intervals().size());
  std::vector<ApId> universe;
  for (const auto& ap : aps) universe.push_back(ap.id);
  const auto queries = corpus(reference, universe, params.order, rng);
  ASSERT_GT(queries.size(), 3 * reference.intervals().size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto want = reference.locate(queries[q]);
    const auto got = index.locate(queries[q]);
    const std::string diff = candidates_diff(got, want);
    ASSERT_TRUE(diff.empty())
        << diff << " at query " << q << " " << to_string(queries[q]);
    const std::string counts = counters_diff(got_counts, want_counts);
    ASSERT_TRUE(counts.empty())
        << counts << " after query " << q << " " << to_string(queries[q]);
  }
  // The corpus reaches every outcome.
  EXPECT_GT(got_counts.fast.value(), 0u);
  EXPECT_GT(got_counts.fallback.value(), 0u);
  EXPECT_GT(got_counts.misses.value(), 0u);
  EXPECT_GT(got_counts.memo.value(), 0u);
}

TEST(RouteSvdParity, LocateMatchesMapIndexOnMiniCityRoutes) {
  const testing::MiniCity city;
  const std::vector<rf::AccessPoint> aps = city.ap_snapshot();
  Rng rng(0x5bd1);
  for (const roadnet::BusRoute& route : city.routes)
    for (std::size_t order = 1; order <= 5; ++order) {
      RouteSvdParams params;
      params.order = order;
      expect_parity(route, aps, city.model, params, rng);
    }
}

TEST(RouteSvdParity, ExhaustiveScoringMatchesMapIndex) {
  // A zero fallback floor scores every interval instead of the posting
  // union; a tight cap truncates the fast path's candidate list.
  const testing::MiniCity city;
  const std::vector<rf::AccessPoint> aps = city.ap_snapshot();
  Rng rng(0x5bd2);
  for (const std::size_t order : {1u, 3u}) {
    RouteSvdParams params;
    params.order = order;
    params.min_fallback_score = 0.0;
    params.max_candidates = 2;
    expect_parity(city.route_a(), aps, city.model, params, rng);
  }
}

TEST(RouteSvdParity, RepeatedSignaturesAreCappedLikeMapIndex) {
  // Route A out and back: the signatures of the outbound leg recur on
  // the way back, so an exact lookup finds more intervals than a cap of
  // one candidate lets through.
  testing::MiniCity city;
  const roadnet::BusRoute& a = city.route_a();
  std::vector<roadnet::EdgeId> edges = a.edges();
  edges.push_back(city.net->add_straight_edge(
      city.net->edge(edges.back()).to(), city.net->edge(edges.front()).from(),
      12.5));
  const roadnet::BusRoute loop(roadnet::RouteId(7), "loop", *city.net, edges,
                               {{"l0", 0.0}, {"l1", 3000.0}});
  const std::vector<rf::AccessPoint> aps = city.ap_snapshot();
  Rng rng(0x5bd3);
  for (std::size_t order = 1; order <= 3; ++order) {
    RouteSvdParams params;
    params.order = order;
    params.max_candidates = 1;
    const MapRouteSvd reference(loop, aps, city.model, params);
    std::map<RankSignature, int> seen;
    for (const auto& interval : reference.intervals())
      ++seen[interval.signature];
    EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                            [](const auto& s) { return s.second > 1; }));
    expect_parity(loop, aps, city.model, params, rng);
  }
}

}  // namespace
}  // namespace wiloc::svd
