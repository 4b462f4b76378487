// Workload inputs, generated once per seed and cached on disk.
//
// The city is the paper corridor that wilocator_serve serves (fixed
// layout), so runs with different seeds measure the same deployment.
// The seed drives everything the server is fed: the training history
// (ground-truth segment times of `kHistoryDays` simulated service days)
// and one live window of crowd-sensed trips (departures 07:00-09:00 of
// the following day) with their ground truth. Generation takes seconds
// and is never inside a timed region; the cache makes repeated runs of a
// seed skip it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/travel_time.hpp"
#include "sim/city.hpp"
#include "sim/crowd.hpp"

namespace servebench {

inline constexpr int kHistoryDays = 2;
/// First trip id of the live window (round 0).
inline constexpr std::uint32_t kFirstTripId = 1000;

/// Ground truth + scan stream of one live trip.
struct LiveTrip {
  wiloc::sim::TripRecord record;
  std::vector<wiloc::sim::ScanReport> reports;
};

struct Inputs {
  std::uint64_t seed = 0;
  wiloc::sim::City city;
  std::vector<wiloc::core::TravelObservation> history;
  std::vector<LiveTrip> live;
  double generate_s = 0.0;  ///< 0 when loaded from the cache
};

/// Loads the seed's inputs from `cache_dir`, generating and storing them
/// first when absent (or unreadable).
Inputs load_inputs(std::uint64_t seed, const std::string& cache_dir);

}  // namespace servebench
