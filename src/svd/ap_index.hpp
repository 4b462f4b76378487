// Spatial bucketing of APs, and the signature kernel built on it.
//
// SVD construction evaluates the expected RSS field at millions of grid
// samples; only APs within radio range of a sample can influence its
// ranking, so a uniform bucket grid turns the O(#APs) inner loop into a
// near-constant one. SignatureKernel then ranks the nearby APs, pruning
// with the path-loss term before paying for the exact field.
#pragma once

#include <utility>
#include <vector>

#include "geo/geometry.hpp"
#include "rf/access_point.hpp"
#include "rf/propagation.hpp"
#include "svd/signature.hpp"

namespace wiloc::svd {

/// Uniform-grid index over a fixed AP set (non-owning copies of the AP
/// records are stored by value; the index is immutable after build).
class ApIndex {
 public:
  /// Buckets the APs with the given bucket size (m). Requires > 0.
  ApIndex(std::vector<rf::AccessPoint> aps, double bucket_size_m = 64.0);

  std::size_t count() const { return aps_.size(); }
  const std::vector<rf::AccessPoint>& aps() const { return aps_; }

  /// APs within `radius` of x (by position; candidates may be slightly
  /// farther than radius are filtered exactly).
  void query(geo::Point x, double radius,
             std::vector<const rf::AccessPoint*>& out) const;

  /// The radio range (m) beyond which an AP's *expected* RSS under the
  /// model is below `floor_dbm`: the largest such range over all APs,
  /// padded by the model's shadowing amplitude. Use as the query radius.
  static double hearing_radius(const std::vector<rf::AccessPoint>& aps,
                               const rf::LogDistanceModel& model,
                               double floor_dbm);

 private:
  struct Cell {
    std::vector<std::uint32_t> ap_indices;
  };

  std::size_t cell_of(geo::Point p) const;

  std::vector<rf::AccessPoint> aps_;
  geo::Aabb bounds_;
  double bucket_;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<Cell> cells_;
};

/// The one signature kernel of the SVD builders (RouteSvd, SvdGrid): the
/// top-`order` APs at a point by *expected* RSS (descending, ties by id
/// ascending), among those at or above `floor_dbm`.
///
/// The static shadowing field is bounded, |S_ap(x)| <= sigma, so the
/// path-loss term alone brackets each AP's expected RSS within +-sigma.
/// An AP whose upper bound is below the floor, or below the order-th
/// best lower bound, cannot be ranked and skips the exact evaluation;
/// the survivors are ranked on the exact mean_rss. The result is
/// therefore identical to ranking every audible AP.
class SignatureKernel {
 public:
  /// `model` must outlive the kernel. Requires order >= 1.
  SignatureKernel(std::vector<rf::AccessPoint> aps,
                  const rf::LogDistanceModel& model, double floor_dbm,
                  std::size_t order);

  /// Signature at x. Not thread-safe: reuses internal scratch.
  RankSignature at(geo::Point x);

 private:
  const rf::LogDistanceModel& model_;
  double floor_dbm_;
  std::size_t order_;
  double radius_;  ///< ApIndex::hearing_radius; set before index_ moves
  double slack_;   ///< shadowing bound plus a rounding margin
  ApIndex index_;
  std::vector<const rf::AccessPoint*> near_;
  std::vector<std::pair<double, const rf::AccessPoint*>> bounded_;
  std::vector<std::pair<double, rf::ApId>> ranked_;
};

}  // namespace wiloc::svd
