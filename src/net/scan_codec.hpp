// The wire codec for what phones and peer nodes send the serving path:
//   a POST /v1/scans body,
//     {"scans":[{"trip":T,"t":S,"readings":[[ap,rssi_dbm],...]},...]},
//   its ack, {"submitted":N,"enqueued":M}, and
//   a POST /v1/trips body, {"trip":T,"route":R} or {"trip":T,"end":true}.
// The service (decode), the cluster router (decode, split scans by
// owner, re-encode, sum the nodes' acks) and the load drivers (encode)
// share it, so what a router forwards is exactly what a node accepts
// and both answer a bad body with the same 400. Every decoder walks its
// body once with JsonReader and builds only its own output.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/ingest_engine.hpp"

namespace wiloc::net {

/// Renders one POST /v1/scans body for a slice of submissions.
std::string encode_scan_batch(std::span<const core::ScanSubmission> batch);

/// Inverse of encode_scan_batch: decodes a POST /v1/scans body in one
/// pass, allocating only the batch. Readings are normalized to the
/// WifiScan invariant (strongest first). Returns nullopt and sets
/// `error` on malformed input.
std::optional<std::vector<core::ScanSubmission>> decode_scan_batch(
    const std::string& body, std::string* error);

/// A node's answer to an accepted POST /v1/scans.
struct ScanAck {
  std::uint64_t submitted = 0;
  std::uint64_t enqueued = 0;
};

std::string encode_scan_ack(ScanAck ack);

/// Reads an ack as the router tallies it: a count that is absent or not
/// an integer in range reads 0, and so does every count of a body that
/// is not JSON.
ScanAck decode_scan_ack(std::string_view body);

/// One POST /v1/trips request: begin `trip` on `route`, or end it.
struct TripRequest {
  roadnet::TripId trip{};
  /// Set whenever the body's "route" is valid, even when it ends.
  std::optional<roadnet::RouteId> route{};
  bool end = false;  ///< the body has "end":true
};

/// Decodes a POST /v1/trips body in one pass. Returns nullopt and sets
/// `error` (the 400 text) on bad JSON, a missing or bad "trip", or —
/// unless it ends the trip — a missing or bad "route". A repeated key's
/// last value wins and other members are skipped.
std::optional<TripRequest> decode_trip_request(std::string_view body,
                                               std::string* error);

/// The number member `key` of a JSON object body (its last one when
/// repeated); nullopt when it is absent or not a number, or when the
/// body is not valid JSON. The router reads a node's `arrival_time`
/// with it.
std::optional<double> json_number_member(std::string_view body,
                                         std::string_view key);

}  // namespace wiloc::net
