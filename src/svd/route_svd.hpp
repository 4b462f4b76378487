// Route-restricted Signal Voronoi Diagram.
//
// The mobility constraint (Definition 4: a bus follows its route) means
// positioning only ever needs the SVD *along the route polyline*. RouteSvd
// samples the route at a fine arc-length step, computes the k-order rank
// signature of each sample from the expected RSS field, and coalesces
// equal-signature runs into intervals: the road sub-segments e_ij of
// Definition 5, computed directly. Both ways of locating a scan start
// from an inverted AP -> interval posting-list index: an exact
// signature is looked up among the intervals holding the strongest
// observed AP; a noisy / degraded signature (e.g. after an AP dies) is
// scored for consistency against the union of the observed APs' lists.
// locate() is const and safe to call concurrently from many threads
// (scratch state is thread-local).
//
// The index is a few flat arrays built once (DESIGN.md §5, "RouteSvd
// layout"): interval bounds, one fixed-width rank row per interval, and
// the postings in compressed-sparse-row form.
#pragma once

#include <cstdint>
#include <limits>
#include <ranges>
#include <span>

#include "roadnet/route.hpp"
#include "svd/ap_index.hpp"
#include "svd/positioning_index.hpp"
#include "svd/signature.hpp"

namespace wiloc::svd {

struct RouteSvdParams {
  std::size_t order = 2;      ///< signature length (Fig. 9b sweeps this)
  double sample_step_m = 1.0; ///< route sampling resolution
  double floor_dbm = -95.0;   ///< audibility floor for the mean field
  std::size_t max_candidates = 8;   ///< cap on returned candidates
  double min_fallback_score = 0.15; ///< scored matches below this are noise
};

/// The per-route positioning structure.
class RouteSvd final : public PositioningIndex {
 public:
  /// A maximal run of route offsets sharing one signature. A view into
  /// the index: valid while the index lives.
  struct Interval {
    /// Strongest AP first; shorter than order() where fewer APs clear
    /// the audibility floor.
    std::span<const rf::ApId> signature;
    double begin;  ///< route offset, inclusive
    double end;    ///< route offset, exclusive (== next begin)
    double mid() const { return (begin + end) / 2.0; }
    double length() const { return end - begin; }
  };

  /// Builds the index. `model` is only used during construction.
  RouteSvd(const roadnet::BusRoute& route,
           std::vector<rf::AccessPoint> aps,
           const rf::LogDistanceModel& model, RouteSvdParams params = {});

  std::size_t interval_count() const { return begin_.size() - 1; }
  /// Every interval in route order, as a random-access view.
  auto intervals() const {
    return std::views::iota(std::size_t{0}, interval_count()) |
           std::views::transform(
               [this](std::size_t i) { return interval(i); });
  }
  std::size_t order() const { return params_.order; }

  /// Signature governing the given route offset (clamped).
  std::span<const rf::ApId> signature_at(double route_offset) const;

  /// Mean interval length (m): the resolution positioning can achieve.
  double mean_interval_length() const;

  /// Inverted index: ids (ascending) of the intervals whose signature
  /// contains the AP. Empty for APs outside the construction set. The
  /// exact lookup scans the strongest observed AP's list; the degraded
  /// path unions the observed APs' lists to prefilter the candidate
  /// intervals instead of scoring the whole route.
  std::span<const std::uint32_t> postings_for(rf::ApId ap) const;

  /// Bytes the index holds on the heap: the capacities of its arrays.
  std::size_t heap_bytes() const;

  std::vector<Candidate> locate(
      const std::vector<rf::ApId>& observed) const override;

  double route_length() const override { return length_; }

  /// Whether the AP participated in construction.
  bool knows_ap(rf::ApId ap) const override;

  void set_metrics(const LocateMetrics& metrics) override {
    metrics_ = metrics;
  }

 private:
  /// Pads rank rows past a signature's end. No construction AP has it.
  static constexpr rf::ApId kNoAp{std::numeric_limits<std::uint32_t>::max()};

  /// Interval i's rank row: order() entries, kNoAp-padded.
  const rf::ApId* row(std::size_t i) const {
    return ranks_.data() + i * params_.order;
  }
  Interval interval(std::size_t i) const {
    return {signature(i), begin_[i], begin_[i + 1]};
  }
  /// Interval i's signature: its rank row without the padding.
  std::span<const rf::ApId> signature(std::size_t i) const {
    std::size_t n = params_.order;
    while (n > 0 && row(i)[n - 1] == kNoAp) --n;
    return {row(i), n};
  }
  double mid(std::size_t i) const {
    return Interval{{}, begin_[i], begin_[i + 1]}.mid();
  }

  LocateMetrics metrics_;
  RouteSvdParams params_;
  double length_ = 0.0;
  /// Interval i covers [begin_[i], begin_[i + 1]); begin_.back() is the
  /// route length.
  std::vector<double> begin_;
  /// Interval i's signature in ranks_[i * order, (i + 1) * order).
  std::vector<rf::ApId> ranks_;
  std::vector<bool> known_aps_;
  /// AP a's posting list (ascending interval ids whose signature
  /// contains it) is post_ids_[post_start_[a], post_start_[a + 1]).
  std::vector<std::uint32_t> post_start_;
  std::vector<std::uint32_t> post_ids_;
  /// Monotone instance tag: lets the thread-local locate memo detect a
  /// stale entry even if a new index reuses this object's address.
  std::uint64_t build_id_ = 0;
};

}  // namespace wiloc::svd
