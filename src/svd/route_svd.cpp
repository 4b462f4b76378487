#include "svd/route_svd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/contracts.hpp"

namespace wiloc::svd {

namespace {
std::atomic<std::uint64_t> next_build_id{1};
}  // namespace

RouteSvd::RouteSvd(const roadnet::BusRoute& route,
                   std::vector<rf::AccessPoint> aps,
                   const rf::LogDistanceModel& model, RouteSvdParams params)
    : params_(params), length_(route.length()),
      build_id_(next_build_id.fetch_add(1, std::memory_order_relaxed)) {
  WILOC_EXPECTS(params_.order >= 1);
  WILOC_EXPECTS(params_.sample_step_m > 0.0);
  WILOC_EXPECTS(params_.max_candidates >= 1);

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

  // Inverted AP -> interval index for the degraded locate path. Interval
  // ids are appended in ascending order, so each list is sorted.
  postings_.resize(known_aps_.size());
  for (std::uint32_t i = 0; i < intervals_.size(); ++i)
    for (const rf::ApId ap : intervals_[i].signature.aps())
      postings_[ap.index()].push_back(i);
}

const std::vector<std::uint32_t>& RouteSvd::postings_for(rf::ApId ap) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (ap.index() >= postings_.size()) return kEmpty;
  return postings_[ap.index()];
}

const RankSignature& RouteSvd::signature_at(double route_offset) const {
  route_offset = std::clamp(route_offset, 0.0, length_);
  // Intervals are sorted by begin; binary search the containing one.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), route_offset,
      [](double v, const Interval& iv) { return v < iv.begin; });
  const std::size_t idx =
      it == intervals_.begin()
          ? 0
          : static_cast<std::size_t>(it - intervals_.begin()) - 1;
  return intervals_[idx].signature;
}

double RouteSvd::mean_interval_length() const {
  if (intervals_.empty()) return 0.0;
  return length_ / static_cast<double>(intervals_.size());
}

bool RouteSvd::knows_ap(rf::ApId ap) const {
  return ap.index() < known_aps_.size() && known_aps_[ap.index()];
}

namespace {

// Per-thread scratch for locate(): reused across calls (and across
// RouteSvd instances) to keep the hot path allocation-free. The stamp
// array implements an epoch-marked membership set over interval ids; the
// epoch strictly increases per call, so stale marks never collide.
struct LocateScratch {
  std::vector<rf::ApId> filtered;
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  std::vector<std::pair<double, std::uint32_t>> scored;

  // One-entry memo over the previous call. Shard workers drain scans in
  // batches, and consecutive scans of one trip frequently repeat the same
  // filtered ranking; the index is immutable after construction, so the
  // previous result (and its metric outcome) can be replayed verbatim.
  // Keyed by (instance, build id, filtered ranking) — the build id guards
  // against a freed index's address being reused.
  enum class Outcome { kNone, kFast, kFallback, kMiss };
  const void* memo_instance = nullptr;
  std::uint64_t memo_build = 0;
  std::vector<rf::ApId> memo_key;
  std::vector<Candidate> memo_result;
  Outcome memo_outcome = Outcome::kNone;
};

thread_local LocateScratch locate_scratch;

}  // namespace

std::vector<Candidate> RouteSvd::locate(
    const std::vector<rf::ApId>& observed) const {
  LocateScratch& scratch = locate_scratch;

  // Restrict the observation to APs the diagram was built from; unknown
  // (newly appeared) APs cannot be matched and only distort the ranking.
  std::vector<rf::ApId>& filtered = scratch.filtered;
  filtered.clear();
  for (const rf::ApId ap : observed)
    if (knows_ap(ap)) filtered.push_back(ap);
  if (filtered.empty()) {
    if (metrics_.misses != nullptr) metrics_.misses->inc();
    if (metrics_.candidates != nullptr) metrics_.candidates->record(0.0);
    return {};
  }

  // Memo replay: same index, same filtered ranking as the previous call
  // on this thread. The outcome counters are re-incremented so totals stay
  // identical to the unmemoized path; memo_hits records the saving.
  using Outcome = LocateScratch::Outcome;
  if (scratch.memo_instance == this && scratch.memo_build == build_id_ &&
      scratch.memo_key == filtered) {
    if (metrics_.memo_hits != nullptr) metrics_.memo_hits->inc();
    if (scratch.memo_outcome == Outcome::kFast) {
      if (metrics_.fast_path_hits != nullptr) metrics_.fast_path_hits->inc();
    } else if (scratch.memo_outcome == Outcome::kFallback) {
      if (metrics_.fallback_hits != nullptr) metrics_.fallback_hits->inc();
    } else if (metrics_.misses != nullptr) {
      metrics_.misses->inc();
    }
    if (metrics_.candidates != nullptr)
      metrics_.candidates->record(
          static_cast<double>(scratch.memo_result.size()));
    return scratch.memo_result;
  }
  const auto remember = [&](Outcome outcome,
                            const std::vector<Candidate>& result) {
    scratch.memo_instance = this;
    scratch.memo_build = build_id_;
    scratch.memo_key = filtered;
    scratch.memo_result = result;
    scratch.memo_outcome = outcome;
  };

  std::vector<Candidate> out;

  // Fast path: the observed top-k is a signature we have verbatim.
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

  // Degraded path (noise flipped a rank, or an AP died): score candidate
  // intervals against the full observed ranking. An interval sharing no
  // AP with the observation scores exactly 0, so when the fallback floor
  // is positive the union of the observed APs' posting lists is a lossless
  // prefilter; a zero floor admits zero-score intervals and needs the
  // full scan.
  std::vector<std::pair<double, std::uint32_t>>& scored = scratch.scored;
  scored.clear();
  if (params_.min_fallback_score > 0.0) {
    std::vector<std::uint32_t>& candidates = scratch.candidates;
    candidates.clear();
    if (scratch.stamp.size() < intervals_.size())
      scratch.stamp.resize(intervals_.size(), 0);
    const std::uint64_t epoch = ++scratch.epoch;
    for (const rf::ApId ap : filtered)
      for (const std::uint32_t idx : postings_[ap.index()])
        if (scratch.stamp[idx] != epoch) {
          scratch.stamp[idx] = epoch;
          candidates.push_back(idx);
        }
    for (const std::uint32_t idx : candidates) {
      const double s = rank_consistency(filtered, intervals_[idx].signature);
      if (s >= params_.min_fallback_score) scored.emplace_back(s, idx);
    }
  } else {
    for (std::uint32_t i = 0; i < intervals_.size(); ++i) {
      const double s = rank_consistency(filtered, intervals_[i].signature);
      if (s >= params_.min_fallback_score) scored.emplace_back(s, i);
    }
  }

  // Only the top max_candidates are returned; a bounded partial sort
  // beats sorting the whole candidate set. The comparator is a total
  // order (ties broken by interval id), so the result is identical to a
  // full sort regardless of the candidate enumeration order.
  const std::size_t take = std::min(params_.max_candidates, scored.size());
  const auto by_score = [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(take),
                    scored.end(), by_score);
  out.reserve(take);
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

}  // namespace wiloc::svd
