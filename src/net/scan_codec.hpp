// The POST /v1/scans wire codec: one JSON body per scan batch,
//   {"scans":[{"trip":T,"t":S,"readings":[[ap,rssi_dbm],...]},...]}
// shared by the service (decode), the cluster router (decode, split by
// owner, re-encode) and the load drivers (encode), so what a router
// forwards is exactly what a node accepts.
#pragma once

#include <optional>
#include <span>
#include <string>
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

}  // namespace wiloc::net
