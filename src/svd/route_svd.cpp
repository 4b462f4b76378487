#include "svd/route_svd.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <numeric>

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
  for (const auto& ap : aps) {
    WILOC_EXPECTS(ap.id != kNoAp);
    max_ap = std::max(max_ap, ap.id.value());
  }
  known_aps_.assign(aps.empty() ? 0 : max_ap + 1, false);
  for (const auto& ap : aps) known_aps_[ap.id.value()] = true;

  const std::size_t k = params_.order;
  const auto open_interval = [&](double begin, const RankSignature& sig) {
    begin_.push_back(begin);
    ranks_.insert(ranks_.end(), sig.aps().begin(), sig.aps().end());
    ranks_.resize(begin_.size() * k, kNoAp);
  };
  SignatureKernel kernel(std::move(aps), model, params_.floor_dbm, k);
  const auto steps = static_cast<std::size_t>(
      std::ceil(length_ / params_.sample_step_m));
  RankSignature current = kernel.at(route.point_at(0.0));
  open_interval(0.0, current);
  for (std::size_t i = 1; i <= steps; ++i) {
    const double offset =
        length_ * static_cast<double>(i) / static_cast<double>(steps);
    RankSignature sig = kernel.at(route.point_at(offset));
    if (!(sig == current)) {
      open_interval(offset, sig);
      current = std::move(sig);
    }
  }
  begin_.push_back(length_);
  begin_.shrink_to_fit();
  ranks_.shrink_to_fit();

  const std::size_t n = interval_count();
  // Inverted AP -> interval index for both locate paths: count,
  // prefix-sum, fill. Interval ids are filled in ascending order, so
  // each list is sorted.
  post_start_.assign(known_aps_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (const rf::ApId ap : signature(i)) ++post_start_[ap.index() + 1];
  std::partial_sum(post_start_.begin(), post_start_.end(),
                   post_start_.begin());
  post_ids_.resize(post_start_.back());
  std::vector<std::uint32_t> fill(post_start_.begin(), post_start_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i)
    for (const rf::ApId ap : signature(i)) post_ids_[fill[ap.index()]++] = i;
}

std::span<const std::uint32_t> RouteSvd::postings_for(rf::ApId ap) const {
  if (ap.index() + 1 >= post_start_.size()) return {};
  return {post_ids_.data() + post_start_[ap.index()],
          post_ids_.data() + post_start_[ap.index() + 1]};
}

std::span<const rf::ApId> RouteSvd::signature_at(double route_offset) const {
  route_offset = std::clamp(route_offset, 0.0, length_);
  // Interval begins are sorted; binary search the containing one.
  const auto begins_end = begin_.end() - 1;
  const auto it = std::upper_bound(begin_.begin(), begins_end, route_offset);
  const std::size_t idx =
      it == begin_.begin()
          ? 0
          : static_cast<std::size_t>(it - begin_.begin()) - 1;
  return signature(idx);
}

double RouteSvd::mean_interval_length() const {
  return length_ / static_cast<double>(interval_count());
}

std::size_t RouteSvd::heap_bytes() const {
  return begin_.capacity() * sizeof(double) +
         ranks_.capacity() * sizeof(rf::ApId) +
         (post_start_.capacity() + post_ids_.capacity()) *
             sizeof(std::uint32_t) +
         known_aps_.capacity() / CHAR_BIT;
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
  std::vector<rf::ApId> key;  ///< padded top-k of `filtered`
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

  // Fast path: the observed top-k is a signature we have verbatim. Every
  // such interval holds the strongest observed AP, so its posting list
  // (ascending ids) is the candidate set. The key is padded like a rank
  // row, so a ranking shorter than the order matches only an equally
  // short signature.
  const std::size_t k = params_.order;
  const std::size_t head = std::min(k, filtered.size());
  // The top k must be distinct: the RankSignature contract.
  for (std::size_t i = 0; i < head; ++i)
    for (std::size_t j = i + 1; j < head; ++j)
      WILOC_EXPECTS(filtered[i] != filtered[j]);
  std::vector<rf::ApId>& key = scratch.key;
  key.assign(k, kNoAp);
  std::copy_n(filtered.begin(), head, key.begin());
  for (const std::uint32_t idx : postings_for(key.front())) {
    if (out.size() == params_.max_candidates) break;
    if (std::equal(key.begin(), key.end(), row(idx)))
      out.push_back({mid(idx), 1.0});
  }
  if (!out.empty()) {
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
    if (scratch.stamp.size() < interval_count())
      scratch.stamp.resize(interval_count(), 0);
    const std::uint64_t epoch = ++scratch.epoch;
    for (const rf::ApId ap : filtered)
      for (const std::uint32_t idx : postings_for(ap))
        if (scratch.stamp[idx] != epoch) {
          scratch.stamp[idx] = epoch;
          candidates.push_back(idx);
        }
    for (const std::uint32_t idx : candidates) {
      const double s = rank_consistency(filtered, signature(idx));
      if (s >= params_.min_fallback_score) scored.emplace_back(s, idx);
    }
  } else {
    for (std::uint32_t i = 0; i < interval_count(); ++i) {
      const double s = rank_consistency(filtered, signature(i));
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
    out.push_back({mid(scored[i].second), scored[i].first});
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
