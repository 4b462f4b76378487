// One seeded chaos schedule for every robustness suite. From a single
// seed it builds the MiniCity training history, rounds of
// FaultInjector-perturbed trip streams interleaved round-robin the way a
// shared uplink delivers them (each round with one scan for a trip that
// was never registered and one late scan for a trip that already ended),
// and the seeded choices the arms need: ingest batch size, crash trigger
// counts and replication page size.
//
// The serial applier is the reference. Batched ingest on any worker
// count, a crash-recovered run and a replicated peer fed the same
// schedule must end with the same store().save() bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/server.hpp"
#include "helpers.hpp"
#include "sim/fault_injector.hpp"
#include "sim/traffic_model.hpp"
#include "util/binio.hpp"
#include "util/time.hpp"

namespace wiloc::testing {

/// The three seeds every byte-parity arm runs.
inline constexpr std::uint64_t kChaosSeeds[] = {2024, 7, 99};

struct ChaosOp {
  enum class Kind : std::uint8_t { begin, scan, end } kind;
  roadnet::TripId trip{0};
  roadnet::RouteId route{0};  ///< begin only
  rf::WifiScan scan;          ///< scan only
};
using ChaosRound = std::vector<ChaosOp>;

/// A crash the crash arm plans: die the `trigger`-th time `point`'s
/// journal-layer site is reached after a (re)start.
struct PlannedCrash {
  sim::CrashPoint point;
  std::uint64_t trigger;
};

struct ChaosSchedule {
  /// The trip id no round ever registers.
  static constexpr roadnet::TripId kUnknownTrip{4000000};
  /// Training covers days 0 and 1; the chaos rounds run on this day.
  static constexpr int kChaosDay = 2;

  MiniCity city;
  sim::TrafficModel traffic;
  std::vector<core::TravelObservation> history;
  std::vector<ChaosRound> rounds;
  std::vector<roadnet::TripId> trips;  ///< every registered trip, in order
  std::size_t scans = 0;               ///< scan ops over all rounds

  // -- seeded choices of the arms ---------------------------------------
  std::size_t batch_size = 0;          ///< ingest_batch size
  std::vector<PlannedCrash> crashes;   ///< all three points, in order
  std::size_t page_bytes = 0;          ///< replication tail page size

  /// Rounds are added until at least `target_scans` scan ops exist.
  ChaosSchedule(std::uint64_t seed, std::size_t target_scans)
      : traffic(seed) {
    Rng rng(seed);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < kChaosDay; ++day)
      for (std::size_t r = 0; r < city.routes.size(); ++r)
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              roadnet::TripId(trip_id++), city.routes[r], city.profiles[r],
              traffic, at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            history.push_back({city.routes[r].edges()[seg.edge_index],
                               city.routes[r].id(), seg.exit,
                               seg.travel_time()});
          }
        }

    // Five staggered base trips per route; every round replays each
    // under a fresh trip id and fault seed.
    struct BaseStream {
      roadnet::RouteId route;
      std::vector<sim::ScanReport> reports;
    };
    std::vector<BaseStream> base;
    const rf::Scanner scanner;
    for (std::size_t r = 0; r < city.routes.size(); ++r)
      for (int k = 0; k < 5; ++k) {
        const auto trip = sim::simulate_trip(
            roadnet::TripId(static_cast<std::uint32_t>(900 + r * 10 + k)),
            city.routes[r], city.profiles[r], traffic,
            at_day_time(kChaosDay, hms(7) + 2400.0 * k), rng);
        base.push_back({city.routes[r].id(),
                        sim::sense_trip(trip, city.routes[r], city.aps,
                                        city.model, scanner, rng)});
      }

    const auto profile = sim::FaultProfile::uniform(0.15);
    std::uint32_t next_trip = 10000;
    for (std::uint64_t round = 0; scans < target_scans; ++round) {
      ChaosRound ops;
      std::vector<roadnet::TripId> round_trips;
      std::vector<std::vector<sim::ScanReport>> faulted;
      for (std::size_t j = 0; j < base.size(); ++j) {
        const roadnet::TripId tid(next_trip++);
        round_trips.push_back(tid);
        trips.push_back(tid);
        ops.push_back({ChaosOp::Kind::begin, tid, base[j].route, {}});
        sim::FaultInjector injector(profile,
                                    seed * 1000003 + round * 131 + j + 1);
        faulted.push_back(injector.apply(base[j].reports));
      }
      ops.push_back(
          {ChaosOp::Kind::scan, kUnknownTrip, {}, base[0].reports[0].scan});
      std::size_t pos = 0;
      bool more = true;
      while (more) {
        more = false;
        for (std::size_t j = 0; j < round_trips.size(); ++j) {
          if (pos >= faulted[j].size()) continue;
          more = true;
          ops.push_back(
              {ChaosOp::Kind::scan, round_trips[j], {}, faulted[j][pos].scan});
        }
        ++pos;
      }
      for (const roadnet::TripId tid : round_trips)
        ops.push_back({ChaosOp::Kind::end, tid, {}, {}});
      ops.push_back({ChaosOp::Kind::scan, round_trips[0], {},
                     base[0].reports.back().scan});
      scans += static_cast<std::size_t>(
          std::count_if(ops.begin(), ops.end(), [](const ChaosOp& op) {
            return op.kind == ChaosOp::Kind::scan;
          }));
      rounds.push_back(std::move(ops));
    }

    Rng choice(seed ^ 0x6368616f73ULL);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return static_cast<std::size_t>(choice.uniform_int(lo, hi));
    };
    batch_size = pick(16, 128);
    // Appends and renames that succeed first, so each death interrupts a
    // running server rather than its recovery (which renames once).
    crashes = {{sim::CrashPoint::mid_journal_append, pick(10, 40)},
               {sim::CrashPoint::torn_journal_frame, pick(10, 40)},
               {sim::CrashPoint::mid_snapshot_rename, pick(2, 4)}};
    page_bytes = pick(512, 4096);
  }

  std::unique_ptr<core::WiLocatorServer> make_server(
      core::ServerConfig config = {}) const {
    return std::make_unique<core::WiLocatorServer>(
        std::vector<const roadnet::BusRoute*>{&city.route_a(),
                                              &city.route_b()},
        city.ap_snapshot(), city.model, DaySlots::paper_five_slots(),
        config);
  }

  void train(core::WiLocatorServer& server) const {
    for (const auto& obs : history) server.load_history(obs);
    server.finalize_history();
  }
};

/// Plays one op through the single-call API.
inline void apply_op(core::WiLocatorServer& server, const ChaosOp& op) {
  switch (op.kind) {
    case ChaosOp::Kind::begin: server.begin_trip(op.trip, op.route); break;
    case ChaosOp::Kind::scan: server.ingest(op.trip, op.scan); break;
    case ChaosOp::Kind::end: server.end_trip(op.trip); break;
  }
}

/// Plays a round one call at a time: the serial reference.
inline void apply_serial(core::WiLocatorServer& server,
                         const ChaosRound& round) {
  for (const ChaosOp& op : round) apply_op(server, op);
  server.drain();
}

/// Plays a round through ingest_batch: contiguous scan runs become
/// batches of at most `batch_size`, and begin/end run between them, so
/// submission order equals the round's order even when processing is
/// concurrent.
inline void apply_batched(core::WiLocatorServer& server,
                          const ChaosRound& round, std::size_t batch_size) {
  std::vector<core::ScanSubmission> pending;
  const auto flush = [&] {
    std::span<const core::ScanSubmission> rest(pending);
    while (!rest.empty()) {
      const std::size_t n = std::min(batch_size, rest.size());
      ASSERT_EQ(server.ingest_batch(rest.first(n)).enqueued, n);
      rest = rest.subspan(n);
    }
    pending.clear();
  };
  for (const ChaosOp& op : round) {
    if (op.kind == ChaosOp::Kind::scan) {
      pending.push_back({op.trip, op.scan});
    } else {
      flush();
      apply_op(server, op);
    }
  }
  flush();
  server.drain();
}

/// The trained server after every round, applied serially.
inline std::unique_ptr<core::WiLocatorServer> serial_reference(
    const ChaosSchedule& schedule) {
  auto server = schedule.make_server();
  schedule.train(*server);
  for (const ChaosRound& round : schedule.rounds) apply_serial(*server, round);
  return server;
}

/// The learned state's snapshot bytes: what every arm is compared by.
inline std::vector<std::byte> store_bytes(
    const core::WiLocatorServer& server) {
  BinWriter w;
  server.store().save(w);
  return w.take();
}

/// Byte equality that reports the sizes and the first differing offset
/// instead of dumping two whole snapshots.
inline ::testing::AssertionResult same_bytes(
    const std::vector<std::byte>& a, const std::vector<std::byte>& b) {
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (diff.first == a.end() && diff.second == b.end())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "store bytes differ: " << a.size() << " vs " << b.size()
         << " bytes, first difference at offset " << (diff.first - a.begin());
}

}  // namespace wiloc::testing
