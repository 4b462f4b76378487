// Guarded scan ingestion — the server's first line of defence.
//
// Crowd-sensed scan streams are hostile: reports arrive late, duplicated,
// clock-skewed, truncated, RSSI-corrupted, or full of APs the positioning
// index has never seen (AP churn). The seed pipeline assumed a clean,
// strictly time-ordered stream and threw on anything unexpected, so one
// bad report from one rider could take down tracking for a whole trip.
//
// IngestGuard sits between the wire and BusTracker:
//   1. *Sanitize* each WifiScan: drop non-finite / out-of-range RSSI,
//      duplicate AP readings (strongest wins), readings below the
//      sensitivity floor, and readings from APs unknown to the route's
//      PositioningIndex (churned-in APs only distort the rank signature —
//      the paper's Section III-B robustness argument works on the
//      surviving ranks).
//   2. *Order* the stream: a small bounded reorder buffer absorbs
//      non-monotonic timestamps; scans older than the release watermark
//      are dropped as late, equal-timestamp scans as duplicates.
//   3. *Rate-limit* per trip: released scans must be at least
//      min_scan_spacing_s apart in scan time.
//   4. Return a structured IngestResult (accepted / rejected-with-reason /
//      deferred) instead of throwing, and keep IngestStats counters that
//      account for every submitted scan:
//          accepted + rejected + deferred == submitted, always.
//
// With a clean in-order stream every scan passes through unchanged and in
// submission order, so the guarded pipeline produces bit-identical fixes
// to feeding BusTracker directly (fixes lag by at most reorder_depth
// scans until flush()).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/tracker.hpp"
#include "svd/positioning_index.hpp"

namespace wiloc::core {

/// Why a scan was not (or not yet) turned into a fix.
enum class RejectReason : std::uint8_t {
  none = 0,           ///< not rejected
  unknown_trip,       ///< trip id never registered
  closed_trip,        ///< trip already ended
  invalid_time,       ///< non-finite timestamp
  empty_scan,         ///< no readings and nothing to coast from
  no_usable_readings, ///< sanitization removed every reading and there is
                      ///< no fix to coast from
  stale_scan,         ///< older than the release watermark (dropped late)
  duplicate_scan,     ///< timestamp already seen (released or buffered)
  rate_limited,       ///< closer than min_scan_spacing_s to the previous
                      ///< released scan
};
inline constexpr std::size_t kRejectReasonCount = 9;

const char* to_string(RejectReason reason);

enum class IngestStatus : std::uint8_t {
  accepted,  ///< released to the tracker (this call)
  rejected,  ///< dropped, see reason
  deferred,  ///< held in the reorder buffer; released by a later submit
             ///< or by flush()
};

/// The structured outcome of one submit(). Optional-like accessors refer
/// to the newest fix produced by any scan *released* during the call
/// (which, under reordering, may be an earlier scan than the one
/// submitted — Fix::time says which).
struct IngestResult {
  IngestStatus status = IngestStatus::rejected;
  RejectReason reason = RejectReason::none;
  std::optional<Fix> fix;
  std::size_t released = 0;  ///< scans handed to the tracker this call

  bool has_value() const { return fix.has_value(); }
  const Fix& operator*() const { return *fix; }
  const Fix* operator->() const { return &*fix; }
};

/// Health counters, per trip and (aggregated) server-wide.
struct IngestStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< released to the tracker
  std::uint64_t deferred = 0;   ///< currently in the reorder buffer
  std::uint64_t reordered = 0;  ///< absorbed out-of-order arrivals
  std::uint64_t fixes = 0;
  std::uint64_t degraded_fixes = 0;  ///< dead-reckoned (coasted) fixes
  std::array<std::uint64_t, kRejectReasonCount> rejected_by_reason{};

  // Reading-level sanitization (per dropped reading, not per scan).
  std::uint64_t readings_dropped_invalid = 0;     ///< NaN/inf/out-of-range
  std::uint64_t readings_dropped_weak = 0;        ///< below sensitivity
  std::uint64_t readings_dropped_duplicate = 0;   ///< repeated AP id
  std::uint64_t readings_dropped_unknown_ap = 0;  ///< not in the index

  std::uint64_t rejected_total() const;
  std::uint64_t rejected(RejectReason reason) const {
    return rejected_by_reason[static_cast<std::size_t>(reason)];
  }
  std::uint64_t dropped_late() const {
    return rejected(RejectReason::stale_scan);
  }
  /// The accounting invariant every caller may assert on.
  bool accounted() const {
    return accepted + rejected_total() + deferred == submitted;
  }

  IngestStats& operator+=(const IngestStats& other);
};

/// Readings outside [kMinRssiDbm, kMaxRssiDbm] are corrupt; readings
/// below kSensitivityFloorDbm are plausible but unusable. Both are
/// dropped, as are readings from APs the route's index does not know.
inline constexpr double kMinRssiDbm = -110.0;
inline constexpr double kMaxRssiDbm = 0.0;
inline constexpr double kSensitivityFloorDbm = -105.0;

struct IngestGuardParams {
  std::size_t reorder_depth = 4;   ///< buffered scans; 0 = strict order
  double min_scan_spacing_s = 0.5; ///< per-trip rate limit
};

/// Per-trip guarded front end over one BusTracker. The tracker and the
/// index must outlive the guard.
class IngestGuard {
 public:
  IngestGuard(BusTracker& tracker, const svd::PositioningIndex& index,
              IngestGuardParams params = {});

  /// Feeds one scan through sanitize -> reorder -> rate-limit -> tracker.
  /// Never throws on malformed input.
  IngestResult submit(const rf::WifiScan& scan);

  /// Releases every buffered scan to the tracker (end of trip, or before
  /// a query that must see the full stream). Returns the fixes produced.
  std::vector<Fix> flush();

  std::size_t buffered() const { return buffer_.size(); }
  const IngestStats& stats() const { return stats_; }

  /// Heap bytes held: the reorder buffer and its scans' readings (no
  /// allocator overhead).
  std::size_t heap_bytes() const;

 private:
  struct Pending {
    rf::WifiScan scan;
    std::uint64_t seq;
  };

  /// Validates and cleans one scan in place (updates reading-drop
  /// counters). Returns the reject reason, or RejectReason::none when
  /// the scan should enter the buffer.
  RejectReason sanitize(rf::WifiScan& scan);

  /// Pops the earliest buffered scan into the tracker. Returns the fix,
  /// if one was produced.
  std::optional<Fix> release_front();

  /// Counts one rejected scan under its reason.
  void count_reject(RejectReason reason) {
    ++stats_.rejected_by_reason[static_cast<std::size_t>(reason)];
  }

  BusTracker* tracker_;
  const svd::PositioningIndex* index_;
  IngestGuardParams params_;
  IngestStats stats_;
  std::vector<Pending> buffer_;  ///< sorted by scan time, ascending
  double watermark_ = 0.0;       ///< time of the last released scan
  bool any_released_ = false;
  std::uint64_t next_seq_ = 0;
  RejectReason last_release_outcome_ = RejectReason::none;
};

}  // namespace wiloc::core
