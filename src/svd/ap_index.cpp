#include "svd/ap_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace wiloc::svd {

ApIndex::ApIndex(std::vector<rf::AccessPoint> aps, double bucket_size_m)
    : aps_(std::move(aps)), bucket_(bucket_size_m) {
  WILOC_EXPECTS(bucket_ > 0.0);
  for (const auto& ap : aps_) bounds_.expand(ap.position);
  if (bounds_.empty()) bounds_ = geo::Aabb({0, 0}, {1, 1});
  bounds_.inflate(bucket_);
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.width() / bucket_)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.height() / bucket_)));
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (const auto& ap : aps_) ++cell_start_[cell_of(ap.position) + 1];
  for (std::size_t c = 1; c < cell_start_.size(); ++c)
    cell_start_[c] += cell_start_[c - 1];
  cell_aps_.resize(aps_.size());
  std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < aps_.size(); ++i)
    cell_aps_[fill[cell_of(aps_[i].position)]++] = i;
}

std::size_t ApIndex::cell_of(geo::Point p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t cx = clamp_idx((p.x - bounds_.min().x) / bucket_, nx_);
  const std::size_t cy = clamp_idx((p.y - bounds_.min().y) / bucket_, ny_);
  return cy * nx_ + cx;
}

void ApIndex::query(geo::Point x, double radius,
                    std::vector<const rf::AccessPoint*>& out) const {
  WILOC_EXPECTS(radius >= 0.0);
  out.clear();
  const double r2 = radius * radius;
  const auto span = static_cast<std::ptrdiff_t>(radius / bucket_) + 1;
  const auto cx = static_cast<std::ptrdiff_t>(
      (x.x - bounds_.min().x) / bucket_);
  const auto cy = static_cast<std::ptrdiff_t>(
      (x.y - bounds_.min().y) / bucket_);
  for (std::ptrdiff_t dy = -span; dy <= span; ++dy) {
    const std::ptrdiff_t yy = cy + dy;
    if (yy < 0 || yy >= static_cast<std::ptrdiff_t>(ny_)) continue;
    for (std::ptrdiff_t dx = -span; dx <= span; ++dx) {
      const std::ptrdiff_t xx = cx + dx;
      if (xx < 0 || xx >= static_cast<std::ptrdiff_t>(nx_)) continue;
      const std::size_t cell = static_cast<std::size_t>(yy) * nx_ +
                               static_cast<std::size_t>(xx);
      for (std::uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1];
           ++k) {
        const std::uint32_t i = cell_aps_[k];
        if (geo::distance2(aps_[i].position, x) <= r2)
          out.push_back(&aps_[i]);
      }
    }
  }
}

double ApIndex::hearing_range(const rf::AccessPoint& ap,
                              const rf::LogDistanceModel& model,
                              double floor_dbm) {
  // Solve P0 - 10 n log10(d/d0) = floor - slack for d.
  const double slack = model.params().shadowing_sigma_db + 1.0;
  const double exponent = (ap.tx_power_dbm - (floor_dbm - slack)) /
                          (10.0 * ap.path_loss_exponent);
  return model.params().reference_distance_m * std::pow(10.0, exponent);
}

SignatureKernel::SignatureKernel(std::vector<rf::AccessPoint> aps,
                                 const rf::LogDistanceModel& model,
                                 double floor_dbm, std::size_t order)
    : model_(model), floor_dbm_(floor_dbm), order_(order),
      // The margin dwarfs the few-ulp rounding of the bilinear blend
      // and of path loss + shadowing at dBm magnitudes.
      slack_(model.params().shadowing_sigma_db + 1e-6),
      index_(std::move(aps)) {
  WILOC_EXPECTS(order_ >= 1);
  range2_.reserve(index_.count());
  for (const rf::AccessPoint& ap : index_.aps()) {
    const double range = ApIndex::hearing_range(ap, model_, floor_dbm_);
    range2_.push_back(range * range);
    radius_ = std::max(radius_, range);
  }
}

RankSignature SignatureKernel::at(geo::Point x) {
  if (!anchored_ ||
      geo::distance2(x, anchor_) > kReuseRadiusM * kReuseRadiusM) {
    index_.query(x, radius_ + kReuseRadiusM, near_);
    ++queries_;
    anchored_ = true;
    anchor_ = x;
    candidates_.clear();
    for (const rf::AccessPoint* ap : near_)
      candidates_.push_back(
          static_cast<std::uint32_t>(ap - index_.aps().data()));
  }
  // Beyond its hearing range an AP's path loss is at least 1 dB below
  // floor - sigma, so it would fail the bound below anyway.
  bounded_.clear();
  for (const std::uint32_t i : candidates_) {
    const rf::AccessPoint& ap = index_.aps()[i];
    if (geo::distance2(ap.position, x) > range2_[i]) continue;
    const double path_loss = model_.path_loss_rss(ap, x);
    ++path_loss_evals_;
    if (path_loss + slack_ >= floor_dbm_) bounded_.emplace_back(path_loss, &ap);
  }
  // An AP whose upper bound is below the order-th best lower bound has
  // `order` APs strictly stronger than it, all of them audible when
  // that bound clears the floor.
  double cut = floor_dbm_;
  if (bounded_.size() > order_) {
    const auto kth = bounded_.begin() + static_cast<std::ptrdiff_t>(order_ - 1);
    std::nth_element(
        bounded_.begin(), kth, bounded_.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    cut = std::max(cut, kth->first - slack_);
  }
  // path loss + shadowing is mean_rss, term for term.
  ranked_.clear();
  for (const auto& [path_loss, ap] : bounded_) {
    if (path_loss + slack_ < cut) continue;
    const double rss = path_loss + model_.shadowing_db(*ap, x);
    if (rss >= floor_dbm_) ranked_.emplace_back(rss, ap->id);
  }
  const auto top = ranked_.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(order_, ranked_.size()));
  std::partial_sort(ranked_.begin(), top, ranked_.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<rf::ApId> ids;
  ids.reserve(static_cast<std::size_t>(top - ranked_.begin()));
  for (auto it = ranked_.begin(); it != top; ++it) ids.push_back(it->second);
  return RankSignature(std::move(ids));
}

}  // namespace wiloc::svd
