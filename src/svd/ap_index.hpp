// Spatial bucketing of APs, and the signature kernel built on it.
//
// SVD construction evaluates the expected RSS field at millions of grid
// samples; only APs within radio range of a sample can influence its
// ranking, so a uniform bucket grid turns the O(#APs) inner loop into a
// near-constant one. SignatureKernel then ranks the nearby APs, pruning
// by each AP's own hearing range and by the path-loss term before paying
// for the exact field.
#pragma once

#include <cstdint>
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

  /// The radio range (m) beyond which the AP's *expected* RSS under the
  /// model is below `floor_dbm`, padded by the model's shadowing
  /// amplitude plus a 1 dB margin.
  static double hearing_range(const rf::AccessPoint& ap,
                              const rf::LogDistanceModel& model,
                              double floor_dbm);

 private:
  std::size_t cell_of(geo::Point p) const;

  std::vector<rf::AccessPoint> aps_;
  geo::Aabb bounds_;
  double bucket_;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  /// AP indices grouped by cell, ascending within a cell: cell c holds
  /// cell_aps_[cell_start_[c], cell_start_[c + 1]). Two flat arrays, so
  /// building or copying the index costs no allocation per cell.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_aps_;
};

/// The one signature kernel of the SVD builders (RouteSvd, SvdGrid): the
/// top-`order` APs at a point by *expected* RSS (descending, ties by id
/// ascending), among those at or above `floor_dbm`.
///
/// The static shadowing field is bounded, |S_ap(x)| <= sigma, so the
/// path-loss term alone brackets each AP's expected RSS within +-sigma.
/// An AP farther from x than its own hearing range cannot reach the
/// floor and is skipped before its path loss is computed; an AP whose
/// upper bound is below the floor, or below the order-th best lower
/// bound, cannot be ranked and skips the shadowing term. The survivors
/// are ranked on path loss + shadowing, which is exactly mean_rss. The
/// result is therefore identical to ranking every audible AP.
///
/// The builders sample along a walk, so the kernel queries the ApIndex
/// once per anchor, with its radius widened by kReuseRadiusM, and reuses
/// that candidate list for every point within kReuseRadiusM of the
/// anchor. The list is a superset of the APs in range of any such point,
/// and the ranking is a total order, so reuse cannot change a signature.
class SignatureKernel {
 public:
  /// `model` must outlive the kernel. Requires order >= 1.
  SignatureKernel(std::vector<rf::AccessPoint> aps,
                  const rf::LogDistanceModel& model, double floor_dbm,
                  std::size_t order);

  /// Signature at x. Not thread-safe: reuses internal scratch.
  RankSignature at(geo::Point x);

  /// ApIndex queries made so far.
  std::uint64_t queries() const { return queries_; }
  /// Path-loss terms evaluated so far.
  std::uint64_t path_loss_evals() const { return path_loss_evals_; }

 private:
  /// How far (m) a sample may lie from the anchor and still reuse its
  /// candidate list.
  static constexpr double kReuseRadiusM = 32.0;

  const rf::LogDistanceModel& model_;
  double floor_dbm_;
  std::size_t order_;
  double slack_;  ///< shadowing bound plus a rounding margin
  ApIndex index_;
  std::vector<double> range2_;  ///< squared hearing_range per AP of index_
  double radius_ = 1.0;         ///< the largest hearing range, at least 1 m
  bool anchored_ = false;
  geo::Point anchor_;
  std::vector<const rf::AccessPoint*> near_;
  /// The anchor's neighbourhood as indices into index_.aps(), not
  /// pointers, so a copied kernel never points into another's ApIndex.
  std::vector<std::uint32_t> candidates_;
  std::vector<std::pair<double, const rf::AccessPoint*>> bounded_;
  std::vector<std::pair<double, rf::ApId>> ranked_;
  std::uint64_t queries_ = 0;
  std::uint64_t path_loss_evals_ = 0;
};

}  // namespace wiloc::svd
