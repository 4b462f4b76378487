// Component replays for the traced run: the layer calls the socket
// cannot reach (scan decode, ingest_batch, locate, arrival refresh,
// snapshot lookup, the slow-path eta, checkpoint prepare/commit and
// replication apply) timed from outside over the workload's own inputs.
#pragma once

#include <map>
#include <string>

#include "serving.hpp"

namespace servebench {

/// Per-layer values by metric name (see README.md for each one's unit).
std::map<std::string, double> run_layers(const Inputs& in, const Plan& plan,
                                         const std::string& state_dir);

}  // namespace servebench
