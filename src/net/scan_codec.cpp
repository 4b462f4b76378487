#include "net/scan_codec.hpp"

#include <algorithm>
#include <sstream>

#include "net/json.hpp"
#include "util/json_num.hpp"

namespace wiloc::net {

std::string encode_scan_batch(std::span<const core::ScanSubmission> batch) {
  std::ostringstream out;
  out << "{\"scans\":[";
  bool first_scan = true;
  for (const core::ScanSubmission& sub : batch) {
    if (!first_scan) out << ',';
    first_scan = false;
    out << "{\"trip\":" << sub.trip.value()
        << ",\"t\":" << json_num(sub.scan.time) << ",\"readings\":[";
    bool first_reading = true;
    for (const rf::ApReading& r : sub.scan.readings) {
      if (!first_reading) out << ',';
      first_reading = false;
      out << '[' << r.ap.value() << ',' << json_num(r.rssi_dbm) << ']';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::optional<std::vector<core::ScanSubmission>> decode_scan_batch(
    const std::string& body, std::string* error) {
  const auto fail = [error](std::string message)
      -> std::optional<std::vector<core::ScanSubmission>> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = parse_json(body, &parse_error);
  if (!doc.has_value()) return fail("bad JSON: " + parse_error);
  const JsonValue* scans = doc->get("scans");
  const std::vector<JsonValue>* items =
      scans != nullptr ? scans->as_array() : nullptr;
  if (items == nullptr) return fail("missing \"scans\" array");

  std::vector<core::ScanSubmission> batch;
  batch.reserve(items->size());
  for (const JsonValue& item : *items) {
    const auto trip = checked_integer<std::uint32_t>(item.get_number("trip"));
    const auto t = item.get_number("t");
    const JsonValue* readings = item.get("readings");
    const std::vector<JsonValue>* pairs =
        readings != nullptr ? readings->as_array() : nullptr;
    if (!trip.has_value() || !t.has_value() || pairs == nullptr)
      return fail("scan needs trip, t and readings");
    rf::WifiScan scan;
    scan.time = *t;
    scan.readings.reserve(pairs->size());
    for (const JsonValue& pair : *pairs) {
      const std::vector<JsonValue>* rd = pair.as_array();
      if (rd == nullptr || rd->size() != 2)
        return fail("reading must be [ap, rssi_dbm]");
      const auto ap = checked_integer<std::uint32_t>((*rd)[0].as_number());
      const auto rssi = (*rd)[1].as_number();
      if (!ap.has_value() || !rssi.has_value())
        return fail("reading must be [ap, rssi_dbm]");
      scan.readings.push_back({rf::ApId(*ap), *rssi});
    }
    // Normalize to the WifiScan invariant (strongest first, AP id
    // tie-break) — clients need not pre-sort.
    std::sort(scan.readings.begin(), scan.readings.end(),
              [](const rf::ApReading& a, const rf::ApReading& b) {
                if (a.rssi_dbm != b.rssi_dbm) return a.rssi_dbm > b.rssi_dbm;
                return a.ap < b.ap;
              });
    batch.push_back({roadnet::TripId(*trip), std::move(scan)});
  }
  return batch;
}

}  // namespace wiloc::net
