#include "core/ingest_guard.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/contracts.hpp"

namespace wiloc::core {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::none: return "none";
    case RejectReason::unknown_trip: return "unknown_trip";
    case RejectReason::closed_trip: return "closed_trip";
    case RejectReason::invalid_time: return "invalid_time";
    case RejectReason::empty_scan: return "empty_scan";
    case RejectReason::no_usable_readings: return "no_usable_readings";
    case RejectReason::stale_scan: return "stale_scan";
    case RejectReason::duplicate_scan: return "duplicate_scan";
    case RejectReason::rate_limited: return "rate_limited";
  }
  return "?";
}

std::uint64_t IngestStats::rejected_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : rejected_by_reason) total += n;
  return total;
}

IngestStats& IngestStats::operator+=(const IngestStats& other) {
  submitted += other.submitted;
  accepted += other.accepted;
  deferred += other.deferred;
  reordered += other.reordered;
  fixes += other.fixes;
  degraded_fixes += other.degraded_fixes;
  for (std::size_t i = 0; i < rejected_by_reason.size(); ++i)
    rejected_by_reason[i] += other.rejected_by_reason[i];
  readings_dropped_invalid += other.readings_dropped_invalid;
  readings_dropped_weak += other.readings_dropped_weak;
  readings_dropped_duplicate += other.readings_dropped_duplicate;
  readings_dropped_unknown_ap += other.readings_dropped_unknown_ap;
  return *this;
}

IngestGuard::IngestGuard(BusTracker& tracker,
                         const svd::PositioningIndex& index,
                         IngestGuardParams params)
    : tracker_(&tracker), index_(&index), params_(params) {
  WILOC_EXPECTS(params_.min_scan_spacing_s >= 0.0);
}

RejectReason IngestGuard::sanitize(rf::WifiScan& scan) {
  IngestStats& stats = stats_;

  if (!std::isfinite(scan.time)) return RejectReason::invalid_time;

  // Something to coast from: a dead-reckoned (degraded) fix is still
  // possible even when the scan itself carries no positioning signal.
  const bool coastable =
      tracker_->current_offset().has_value() || !buffer_.empty();

  if (scan.readings.empty())
    return coastable ? RejectReason::none : RejectReason::empty_scan;

  // Reading-level sanitization: keep the strongest valid reading per AP.
  std::unordered_map<rf::ApId, double> best;
  best.reserve(scan.readings.size());
  for (const rf::ApReading& r : scan.readings) {
    if (!std::isfinite(r.rssi_dbm) || r.rssi_dbm < kMinRssiDbm ||
        r.rssi_dbm > kMaxRssiDbm) {
      ++stats.readings_dropped_invalid;
      continue;
    }
    if (r.rssi_dbm < kSensitivityFloorDbm) {
      ++stats.readings_dropped_weak;
      continue;
    }
    if (!index_->knows_ap(r.ap)) {
      ++stats.readings_dropped_unknown_ap;
      continue;
    }
    const auto [it, inserted] = best.emplace(r.ap, r.rssi_dbm);
    if (!inserted) {
      ++stats.readings_dropped_duplicate;
      it->second = std::max(it->second, r.rssi_dbm);
    }
  }

  if (best.size() != scan.readings.size()) {
    scan.readings.clear();
    scan.readings.reserve(best.size());
    for (const auto& [ap, rssi] : best) scan.readings.push_back({ap, rssi});
    std::sort(scan.readings.begin(), scan.readings.end(),
              [](const rf::ApReading& a, const rf::ApReading& b) {
                if (a.rssi_dbm != b.rssi_dbm)
                  return a.rssi_dbm > b.rssi_dbm;
                return a.ap < b.ap;
              });
    if (scan.readings.empty() && !coastable)
      return RejectReason::no_usable_readings;
  }
  return RejectReason::none;
}

IngestResult IngestGuard::submit(const rf::WifiScan& input) {
  ++stats_.submitted;

  rf::WifiScan scan = input;
  if (const RejectReason why = sanitize(scan); why != RejectReason::none) {
    count_reject(why);
    return {IngestStatus::rejected, why, std::nullopt, 0};
  }

  // Ordering: everything at or before the watermark is gone for good.
  if (any_released_) {
    if (scan.time == watermark_) {
      count_reject(RejectReason::duplicate_scan);
      return {IngestStatus::rejected, RejectReason::duplicate_scan,
              std::nullopt, 0};
    }
    if (scan.time < watermark_) {
      count_reject(RejectReason::stale_scan);
      return {IngestStatus::rejected, RejectReason::stale_scan,
              std::nullopt, 0};
    }
  }

  const auto pos = std::upper_bound(
      buffer_.begin(), buffer_.end(), scan.time,
      [](double t, const Pending& p) { return t < p.scan.time; });
  if (pos != buffer_.begin() && std::prev(pos)->scan.time == scan.time) {
    count_reject(RejectReason::duplicate_scan);
    return {IngestStatus::rejected, RejectReason::duplicate_scan,
            std::nullopt, 0};
  }
  if (pos != buffer_.end()) ++stats_.reordered;  // arrived out of order

  const std::uint64_t my_seq = next_seq_++;
  buffer_.insert(pos, {std::move(scan), my_seq});
  ++stats_.deferred;

  IngestResult result{IngestStatus::deferred, RejectReason::none,
                      std::nullopt, 0};
  while (buffer_.size() > params_.reorder_depth) {
    const std::uint64_t front_seq = buffer_.front().seq;
    const auto fix = release_front();
    if (last_release_outcome_ == RejectReason::none) ++result.released;
    if (fix.has_value()) result.fix = fix;
    if (front_seq == my_seq) {
      result.status = last_release_outcome_ == RejectReason::none
                          ? IngestStatus::accepted
                          : IngestStatus::rejected;
      result.reason = last_release_outcome_;
    }
  }
  return result;
}

std::optional<Fix> IngestGuard::release_front() {
  Pending pending = std::move(buffer_.front());
  buffer_.erase(buffer_.begin());
  --stats_.deferred;

  if (any_released_ &&
      pending.scan.time - watermark_ < params_.min_scan_spacing_s) {
    count_reject(RejectReason::rate_limited);
    last_release_outcome_ = RejectReason::rate_limited;
    return std::nullopt;
  }

  watermark_ = pending.scan.time;
  any_released_ = true;
  ++stats_.accepted;
  last_release_outcome_ = RejectReason::none;

  const auto fix = tracker_->ingest(pending.scan);
  if (fix.has_value()) {
    ++stats_.fixes;
    if (fix->degraded) ++stats_.degraded_fixes;
  }
  return fix;
}

std::size_t IngestGuard::heap_bytes() const {
  std::size_t bytes = buffer_.capacity() * sizeof(Pending);
  for (const Pending& pending : buffer_)
    bytes += pending.scan.readings.capacity() * sizeof(rf::ApReading);
  return bytes;
}

std::vector<Fix> IngestGuard::flush() {
  std::vector<Fix> fixes;
  fixes.reserve(buffer_.size());
  while (!buffer_.empty()) {
    const auto fix = release_front();
    if (fix.has_value()) fixes.push_back(*fix);
  }
  return fixes;
}

}  // namespace wiloc::core
