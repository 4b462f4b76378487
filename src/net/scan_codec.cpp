#include "net/scan_codec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>

#include "net/json.hpp"
#include "util/json_num.hpp"

namespace wiloc::net {

namespace {

constexpr const char* kNeedsFields = "scan needs trip, t and readings";
constexpr const char* kBadReading = "reading must be [ap, rssi_dbm]";

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_num(std::string& out, double v) {
  char buf[kJsonNumChars];
  out.append(buf, put_json_num(buf, v));
}

/// Reads one whole document, calling member(key, depth) for each member
/// in document order when it is an object (any other value has none).
/// False on a syntax error, which json.error() then names.
template <typename Member>
bool read_members(JsonReader& json, Member&& member) {
  char c = 0;
  if (!json.open(0, &c)) return false;
  const bool ok = c == '{' ? json.object(0, member) : json.skip(c, 0);
  return ok && json.finish();
}

/// One pass over a POST /v1/scans body that builds the batch directly.
/// It keeps the tree decoder's semantics: a repeated key's last value
/// wins (for "scans" too), unknown members are skipped at any depth, and
/// the error reported is the one a full parse followed by a walk of the
/// final "scans" array would find first — any syntax error, then a
/// missing array, then the first bad scan.
class ScanBatchDecoder {
 public:
  explicit ScanBatchDecoder(std::string_view body) : json_(body) {}

  std::optional<std::vector<core::ScanSubmission>> decode(std::string* error) {
    const auto fail = [error](std::string message)
        -> std::optional<std::vector<core::ScanSubmission>> {
      if (error != nullptr) *error = std::move(message);
      return std::nullopt;
    };
    const bool parsed =
        read_members(json_, [this](const std::string& key, std::size_t d) {
          return key == "scans" ? read_scans(d) : json_.skip_value(d);
        });
    if (!parsed) return fail("bad JSON: " + json_.error());
    if (!has_scans_) return fail("missing \"scans\" array");
    if (bad_ != nullptr) return fail(bad_);
    return std::move(batch_);
  }

 private:
  bool read_scans(std::size_t depth) {
    batch_.clear();
    bad_ = nullptr;
    has_scans_ = false;
    char c = 0;
    if (!json_.open(depth, &c)) return false;
    if (c != '[') return json_.skip(c, depth);
    has_scans_ = true;
    return json_.array(depth, [this](std::size_t d) { return read_scan(d); });
  }

  bool read_scan(std::size_t depth) {
    char c = 0;
    if (!json_.open(depth, &c)) return false;
    // After the first bad scan only the syntax of the rest matters.
    if (bad_ != nullptr) return json_.skip(c, depth);
    if (c != '{') {
      bad_ = kNeedsFields;
      return json_.skip(c, depth);
    }
    std::optional<double> trip;
    std::optional<double> t;
    has_readings_ = false;
    const bool ok =
        json_.object(depth, [&](const std::string& key, std::size_t d) {
          if (key == "trip") return json_.value(d, &trip);
          if (key == "t") return json_.value(d, &t);
          if (key == "readings") return read_readings(d);
          return json_.skip_value(d);
        });
    if (!ok) return false;
    const auto trip_id = checked_integer<std::uint32_t>(trip);
    if (!trip_id.has_value() || !t.has_value() || !has_readings_) {
      bad_ = kNeedsFields;
      return true;
    }
    if (bad_reading_) {
      bad_ = kBadReading;
      return true;
    }
    // Normalize to the WifiScan invariant (strongest first, AP id
    // tie-break) — clients need not pre-sort.
    std::sort(readings_.begin(), readings_.end(),
              [](const rf::ApReading& a, const rf::ApReading& b) {
                if (a.rssi_dbm != b.rssi_dbm) return a.rssi_dbm > b.rssi_dbm;
                return a.ap < b.ap;
              });
    rf::WifiScan scan;
    scan.time = *t;
    scan.readings.assign(readings_.begin(), readings_.end());
    batch_.push_back({roadnet::TripId(*trip_id), std::move(scan)});
    return true;
  }

  /// Reads a scan's "readings" value into readings_; a repeated key
  /// starts over.
  bool read_readings(std::size_t depth) {
    readings_.clear();
    has_readings_ = false;
    bad_reading_ = false;
    char c = 0;
    if (!json_.open(depth, &c)) return false;
    if (c != '[') return json_.skip(c, depth);
    has_readings_ = true;
    return json_.array(depth, [this](std::size_t d) { return read_pair(d); });
  }

  bool read_pair(std::size_t depth) {
    char c = 0;
    if (!json_.open(depth, &c)) return false;
    if (c != '[') {
      bad_reading_ = true;
      return json_.skip(c, depth);
    }
    std::optional<double> fields[3];  // [2] takes any extra elements
    std::size_t n = 0;
    const bool ok = json_.array(depth, [&](std::size_t d) {
      return json_.value(d, &fields[std::min<std::size_t>(n++, 2)]);
    });
    if (!ok) return false;
    const auto ap = checked_integer<std::uint32_t>(fields[0]);
    if (n != 2 || !ap.has_value() || !fields[1].has_value())
      bad_reading_ = true;
    else if (!bad_reading_)
      readings_.push_back({rf::ApId(*ap), *fields[1]});
    return true;
  }

  JsonReader json_;
  std::vector<core::ScanSubmission> batch_;
  const char* bad_ = nullptr;  ///< first bad scan's message
  bool has_scans_ = false;
  /// The scan being read: its readings so far (copied out at its exact
  /// size once the scan closes) and what its "readings" value was.
  std::vector<rf::ApReading> readings_;
  bool has_readings_ = false;
  bool bad_reading_ = false;
};

}  // namespace

std::string encode_scan_batch(std::span<const core::ScanSubmission> batch) {
  std::string out = "{\"scans\":[";
  bool first_scan = true;
  for (const core::ScanSubmission& sub : batch) {
    if (!first_scan) out += ',';
    first_scan = false;
    out += "{\"trip\":";
    append_uint(out, sub.trip.value());
    out += ",\"t\":";
    append_num(out, sub.scan.time);
    out += ",\"readings\":[";
    bool first_reading = true;
    for (const rf::ApReading& r : sub.scan.readings) {
      if (!first_reading) out += ',';
      first_reading = false;
      out += '[';
      append_uint(out, r.ap.value());
      out += ',';
      append_num(out, r.rssi_dbm);
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::optional<std::vector<core::ScanSubmission>> decode_scan_batch(
    const std::string& body, std::string* error) {
  return ScanBatchDecoder(body).decode(error);
}

std::string encode_scan_ack(ScanAck ack) {
  std::string out = "{\"submitted\":";
  append_uint(out, ack.submitted);
  out += ",\"enqueued\":";
  append_uint(out, ack.enqueued);
  out += '}';
  return out;
}

ScanAck decode_scan_ack(std::string_view body) {
  JsonReader json(body);
  std::optional<double> submitted;
  std::optional<double> enqueued;
  const bool parsed =
      read_members(json, [&](const std::string& key, std::size_t d) {
        if (key == "submitted") return json.value(d, &submitted);
        if (key == "enqueued") return json.value(d, &enqueued);
        return json.skip_value(d);
      });
  if (!parsed) return {};
  const auto count = [](std::optional<double> v) {
    return checked_integer<std::uint64_t>(v).value_or(0);
  };
  return {count(submitted), count(enqueued)};
}

std::optional<TripRequest> decode_trip_request(std::string_view body,
                                               std::string* error) {
  const auto fail =
      [error](std::string message) -> std::optional<TripRequest> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  JsonReader json(body);
  std::optional<double> trip;
  std::optional<double> route;
  bool end = false;
  const bool parsed =
      read_members(json, [&](const std::string& key, std::size_t d) {
        if (key == "trip") return json.value(d, &trip);
        if (key == "route") return json.value(d, &route);
        if (key != "end") return json.skip_value(d);
        char c = 0;
        if (!json.open(d, &c)) return false;
        end = c == 't';  // only the literal true ends a trip
        return json.skip(c, d);
      });
  if (!parsed) return fail("bad JSON: " + json.error());
  const auto trip_id = checked_integer<std::uint32_t>(trip);
  if (!trip_id.has_value()) return fail("missing or bad \"trip\"");
  TripRequest request{.trip = roadnet::TripId(*trip_id), .end = end};
  if (const auto route_id = checked_integer<std::uint32_t>(route))
    request.route = roadnet::RouteId(*route_id);
  else if (!end)
    return fail("missing or bad \"route\" (or \"end\":true)");
  return request;
}

std::optional<double> json_number_member(std::string_view body,
                                         std::string_view key) {
  JsonReader json(body);
  std::optional<double> value;
  const bool parsed =
      read_members(json, [&](const std::string& name, std::size_t d) {
        return name == key ? json.value(d, &value) : json.skip_value(d);
      });
  return parsed ? value : std::nullopt;
}

}  // namespace wiloc::net
