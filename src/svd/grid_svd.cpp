#include "svd/grid_svd.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/contracts.hpp"

namespace wiloc::svd {

SvdGrid::SvdGrid(std::vector<rf::AccessPoint> aps,
                 const rf::LogDistanceModel& model, GridSpec spec,
                 SvdGridParams params)
    : spec_(spec), params_(params) {
  WILOC_EXPECTS(!spec_.domain.empty());
  WILOC_EXPECTS(spec_.resolution_m > 0.0);
  WILOC_EXPECTS(params_.order >= 1);

  std::uint32_t max_ap = 0;
  for (const auto& ap : aps) max_ap = std::max(max_ap, ap.id.value());
  known_aps_.assign(aps.empty() ? 0 : max_ap + 1, false);
  for (const auto& ap : aps) known_aps_[ap.id.value()] = true;

  SignatureKernel kernel(std::move(aps), model, params_.floor_dbm,
                         params_.order);

  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(spec_.domain.width() / spec_.resolution_m)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(spec_.domain.height() / spec_.resolution_m)));
  cell_region_.assign(nx_ * ny_, 0);

  std::vector<double> sum_x;
  std::vector<double> sum_y;
  std::vector<std::size_t> counts;

  for (std::size_t cy = 0; cy < ny_; ++cy) {
    for (std::size_t cx = 0; cx < nx_; ++cx) {
      const geo::Point center = cell_center(cx, cy);
      RankSignature sig = kernel.at(center);
      RegionIndex ridx;
      const auto it = by_signature_.find(sig);
      if (it == by_signature_.end()) {
        ridx = static_cast<RegionIndex>(regions_.size());
        by_signature_.emplace(sig, ridx);
        regions_.push_back(Region{std::move(sig), 0.0, {}, {}});
        sum_x.push_back(0.0);
        sum_y.push_back(0.0);
        counts.push_back(0);
      } else {
        ridx = it->second;
      }
      cell_region_[cell_index(cx, cy)] = ridx;
      sum_x[ridx] += center.x;
      sum_y[ridx] += center.y;
      ++counts[ridx];
    }
  }

  const double cell_area =
      spec_.resolution_m * spec_.resolution_m;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    regions_[r].area = cell_area * static_cast<double>(counts[r]);
    regions_[r].centroid = {sum_x[r] / static_cast<double>(counts[r]),
                            sum_y[r] / static_cast<double>(counts[r])};
  }

  // Accumulate shared boundary lengths over 4-neighbour cell pairs.
  std::map<std::pair<RegionIndex, RegionIndex>, double> boundary;
  const auto touch = [&](RegionIndex a, RegionIndex b) {
    if (a == b) return;
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    boundary[key] += spec_.resolution_m;
  };
  for (std::size_t cy = 0; cy < ny_; ++cy) {
    for (std::size_t cx = 0; cx < nx_; ++cx) {
      const RegionIndex here = cell_region_[cell_index(cx, cy)];
      if (cx + 1 < nx_) touch(here, cell_region_[cell_index(cx + 1, cy)]);
      if (cy + 1 < ny_) touch(here, cell_region_[cell_index(cx, cy + 1)]);
    }
  }
  for (const auto& [key, len] : boundary) {
    regions_[key.first].neighbors.push_back({key.second, len});
    regions_[key.second].neighbors.push_back({key.first, len});
  }
  for (Region& region : regions_) {
    std::sort(region.neighbors.begin(), region.neighbors.end(),
              [](const NeighborLink& a, const NeighborLink& b) {
                if (a.boundary_length != b.boundary_length)
                  return a.boundary_length > b.boundary_length;
                return a.region < b.region;
              });
  }
}

geo::Point SvdGrid::cell_center(std::size_t cx, std::size_t cy) const {
  return {spec_.domain.min().x +
              (static_cast<double>(cx) + 0.5) * spec_.resolution_m,
          spec_.domain.min().y +
              (static_cast<double>(cy) + 0.5) * spec_.resolution_m};
}

const SvdGrid::Region& SvdGrid::region(RegionIndex i) const {
  WILOC_EXPECTS(i < regions_.size());
  return regions_[i];
}

std::optional<SvdGrid::RegionIndex> SvdGrid::region_of(
    const RankSignature& sig) const {
  const auto it = by_signature_.find(sig);
  if (it == by_signature_.end()) return std::nullopt;
  return it->second;
}

SvdGrid::RegionIndex SvdGrid::region_at(geo::Point p) const {
  WILOC_EXPECTS(spec_.domain.contains(p));
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t cx =
      clamp_idx((p.x - spec_.domain.min().x) / spec_.resolution_m, nx_);
  const std::size_t cy =
      clamp_idx((p.y - spec_.domain.min().y) / spec_.resolution_m, ny_);
  return cell_region_[cell_index(cx, cy)];
}

const RankSignature& SvdGrid::signature_at(geo::Point p) const {
  return regions_[region_at(p)].signature;
}

bool SvdGrid::knows_ap(rf::ApId ap) const {
  return ap.index() < known_aps_.size() && known_aps_[ap.index()];
}

double SvdGrid::cell_area(rf::ApId ap) const {
  double area = 0.0;
  for (const Region& region : regions_) {
    if (!region.signature.empty() && region.signature.strongest() == ap)
      area += region.area;
  }
  return area;
}

std::vector<geo::Point> SvdGrid::meet_points(bool first_order) const {
  std::vector<geo::Point> out;
  for (std::size_t cy = 0; cy + 1 < ny_; ++cy) {
    for (std::size_t cx = 0; cx + 1 < nx_; ++cx) {
      const RegionIndex quad[4] = {
          cell_region_[cell_index(cx, cy)],
          cell_region_[cell_index(cx + 1, cy)],
          cell_region_[cell_index(cx, cy + 1)],
          cell_region_[cell_index(cx + 1, cy + 1)]};
      // Count distinct keys among the four cells around this vertex.
      std::vector<std::uint64_t> keys;
      keys.reserve(4);
      for (const RegionIndex r : quad) {
        std::uint64_t key;
        if (first_order) {
          const RankSignature& sig = regions_[r].signature;
          key = sig.empty() ? ~std::uint64_t{0}
                            : std::uint64_t{sig.strongest().value()};
        } else {
          key = r;
        }
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
          keys.push_back(key);
      }
      if (keys.size() >= 3) {
        out.push_back({spec_.domain.min().x +
                           static_cast<double>(cx + 1) * spec_.resolution_m,
                       spec_.domain.min().y +
                           static_cast<double>(cy + 1) * spec_.resolution_m});
      }
    }
  }
  return out;
}

std::vector<geo::Point> SvdGrid::joint_points() const {
  return meet_points(/*first_order=*/true);
}

std::vector<geo::Point> SvdGrid::bisector_joints() const {
  return meet_points(/*first_order=*/false);
}

double SvdGrid::total_area() const {
  double area = 0.0;
  for (const Region& region : regions_) area += region.area;
  return area;
}

}  // namespace wiloc::svd
