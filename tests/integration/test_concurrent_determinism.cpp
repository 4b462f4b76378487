// Determinism under concurrency: a multi-worker ingest engine fed the
// PR-1 style 10k-scan chaos workload (faulted, interleaved, with
// unknown-trip and closed-trip submissions) must produce bit-identical
// Fix sequences, identical per-trip and aggregate IngestStats, identical
// traffic maps and identical ETA predictions to the serial server fed
// the same submission sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "../helpers.hpp"
#include "core/server.hpp"
#include "sim/fault_injector.hpp"
#include "sim/traffic_model.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

struct Op {
  enum class Kind : std::uint8_t { begin, scan, end } kind;
  TripId trip{0};
  roadnet::RouteId route{0};
  rf::WifiScan scan;
};

/// The deterministic chaos script: every round replays each base trip
/// under a fresh trip id and fault seed, interleaved round-robin, plus
/// one unknown-trip scan and one closed-trip scan per round. Built once
/// and applied verbatim to every server under test.
struct ChaosScript {
  std::vector<Op> ops;
  std::vector<TripId> trips;  ///< every registered trip, in begin order
  std::size_t scan_ops = 0;

  ChaosScript(const testing::MiniCity& city,
              const sim::TrafficModel& traffic, std::size_t target_scans) {
    struct BaseStream {
      roadnet::RouteId route;
      std::vector<sim::ScanReport> reports;
    };
    std::vector<BaseStream> base;
    Rng rng(2024);
    const rf::Scanner scanner;
    for (std::size_t r = 0; r < city.routes.size(); ++r) {
      for (int k = 0; k < 5; ++k) {
        const auto trip = sim::simulate_trip(
            TripId(static_cast<std::uint32_t>(900 + r * 10 + k)),
            city.routes[r], city.profiles[r], traffic,
            at_day_time(1, hms(7) + 2400.0 * k), rng);
        base.push_back({city.routes[r].id(),
                        sim::sense_trip(trip, city.routes[r], city.aps,
                                        city.model, scanner, rng)});
      }
    }

    const auto profile = sim::FaultProfile::uniform(0.15);
    std::uint32_t next_trip = 10000;
    for (int round = 0; scan_ops < target_scans; ++round) {
      std::vector<TripId> round_trips;
      std::vector<std::vector<sim::ScanReport>> faulted;
      for (std::size_t j = 0; j < base.size(); ++j) {
        const TripId tid(next_trip++);
        round_trips.push_back(tid);
        trips.push_back(tid);
        ops.push_back({Op::Kind::begin, tid, base[j].route, {}});
        sim::FaultInjector injector(
            profile, static_cast<std::uint64_t>(round) * 131 + j + 1);
        faulted.push_back(injector.apply(base[j].reports));
      }

      // A scan for a trip id that was never registered.
      ops.push_back(
          {Op::Kind::scan, TripId(4000000), {}, base[0].reports[0].scan});
      ++scan_ops;

      std::size_t pos = 0;
      bool more = true;
      while (more) {
        more = false;
        for (std::size_t j = 0; j < round_trips.size(); ++j) {
          if (pos >= faulted[j].size()) continue;
          more = true;
          ops.push_back(
              {Op::Kind::scan, round_trips[j], {}, faulted[j][pos].scan});
          ++scan_ops;
        }
        ++pos;
      }

      for (const TripId tid : round_trips)
        ops.push_back({Op::Kind::end, tid, {}, {}});
      // A late report for a trip that already ended.
      ops.push_back(
          {Op::Kind::scan, round_trips[0], {}, base[0].reports.back().scan});
      ++scan_ops;
    }
  }
};

/// Plays the script one call at a time (the serial reference).
void apply_serial(WiLocatorServer& server, const ChaosScript& script) {
  for (const Op& op : script.ops) {
    switch (op.kind) {
      case Op::Kind::begin: server.begin_trip(op.trip, op.route); break;
      case Op::Kind::scan: server.ingest(op.trip, op.scan); break;
      case Op::Kind::end: server.end_trip(op.trip); break;
    }
  }
  server.drain();
}

/// Plays the script through ingest_batch: contiguous scan runs become
/// batches; begin/end run inline after their trip's shard drains, so
/// submission order equals the script order even though processing is
/// concurrent.
void apply_batched(WiLocatorServer& server, const ChaosScript& script,
                   std::size_t batch_size) {
  std::vector<ScanSubmission> pending;
  const auto flush = [&] {
    std::span<const ScanSubmission> rest(pending);
    while (!rest.empty()) {
      const std::size_t n = std::min(batch_size, rest.size());
      ASSERT_EQ(server.ingest_batch(rest.first(n)).enqueued, n);
      rest = rest.subspan(n);
    }
    pending.clear();
  };
  for (const Op& op : script.ops) {
    switch (op.kind) {
      case Op::Kind::begin:
        flush();
        server.begin_trip(op.trip, op.route);
        break;
      case Op::Kind::scan:
        pending.push_back({op.trip, op.scan});
        break;
      case Op::Kind::end:
        flush();
        server.end_trip(op.trip);
        break;
    }
  }
  flush();
  server.drain();
}

void expect_identical_stats(const IngestStats& a, const IngestStats& b,
                            const char* what) {
  EXPECT_EQ(a.submitted, b.submitted) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.deferred, b.deferred) << what;
  EXPECT_EQ(a.reordered, b.reordered) << what;
  EXPECT_EQ(a.fixes, b.fixes) << what;
  EXPECT_EQ(a.degraded_fixes, b.degraded_fixes) << what;
  EXPECT_EQ(a.rejected_by_reason, b.rejected_by_reason) << what;
  EXPECT_EQ(a.readings_dropped_invalid, b.readings_dropped_invalid) << what;
  EXPECT_EQ(a.readings_dropped_weak, b.readings_dropped_weak) << what;
  EXPECT_EQ(a.readings_dropped_duplicate, b.readings_dropped_duplicate)
      << what;
  EXPECT_EQ(a.readings_dropped_unknown_ap, b.readings_dropped_unknown_ap)
      << what;
}

TEST(ConcurrentDeterminism, FourWorkersMatchSerialOnChaosWorkload) {
  testing::MiniCity city;
  sim::TrafficModel traffic(17);
  const ChaosScript script(city, traffic, 10000);
  ASSERT_GE(script.scan_ops, 10000u);

  // Identical offline history for both servers, so ETA predictions are
  // comparable bit-for-bit.
  std::vector<TravelObservation> history;
  {
    Rng rng(55);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < 3; ++day)
      for (std::size_t r = 0; r < city.routes.size(); ++r)
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r], traffic,
              at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            history.push_back({city.routes[r].edges()[seg.edge_index],
                               city.routes[r].id(), seg.exit,
                               seg.travel_time()});
          }
        }
  }

  ServerConfig serial_config;  // workers = 0: inline pipeline
  ServerConfig threaded_config;
  threaded_config.engine.workers = 4;
  threaded_config.engine.queue_capacity = 64;  // force queue churn

  WiLocatorServer serial({&city.route_a(), &city.route_b()},
                         city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots(), serial_config);
  WiLocatorServer threaded({&city.route_a(), &city.route_b()},
                           city.ap_snapshot(), city.model,
                           DaySlots::paper_five_slots(), threaded_config);
  for (auto* server : {&serial, &threaded}) {
    for (const auto& obs : history) server->load_history(obs);
    server->finalize_history();
  }

  apply_serial(serial, script);
  apply_batched(threaded, script, /*batch_size=*/97);

  // 1) Bit-identical fix sequences, trip by trip.
  for (const TripId trip : script.trips) {
    const auto& fa = serial.tracker(trip).fixes();
    const auto& fb = threaded.tracker(trip).fixes();
    ASSERT_EQ(fa.size(), fb.size()) << "trip " << trip.value();
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].time, fb[i].time);
      EXPECT_EQ(fa[i].route_offset, fb[i].route_offset);
      EXPECT_EQ(fa[i].confidence, fb[i].confidence);
      EXPECT_EQ(fa[i].degraded, fb[i].degraded);
    }
  }

  // 2) Identical health counters, per trip and in aggregate.
  for (const TripId trip : script.trips)
    expect_identical_stats(serial.trip_ingest_stats(trip),
                           threaded.trip_ingest_stats(trip), "per-trip");
  expect_identical_stats(serial.ingest_stats(), threaded.ingest_stats(),
                         "aggregate");
  EXPECT_TRUE(threaded.ingest_stats().accounted());

  // 3) Identical recent-store contents => identical traffic maps.
  const SimTime now = at_day_time(1, hms(10));
  const TrafficMap map_a = serial.traffic_map(now);
  const TrafficMap map_b = threaded.traffic_map(now);
  ASSERT_EQ(map_a.segments.size(), map_b.segments.size());
  for (const auto& [edge, seg] : map_a.segments) {
    const auto it = map_b.segments.find(edge);
    ASSERT_NE(it, map_b.segments.end());
    EXPECT_EQ(seg.state, it->second.state);
    EXPECT_EQ(seg.z_score, it->second.z_score);
    EXPECT_EQ(seg.recent_count, it->second.recent_count);
    EXPECT_EQ(seg.inferred, it->second.inferred);
  }

  // 4) Identical ETA predictions (post-hoc, from the final fix).
  for (const TripId trip : script.trips) {
    const auto pa = serial.position(trip);
    const auto pb = threaded.position(trip);
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (pa.has_value()) {
      EXPECT_EQ(*pa, *pb);
    }
    const auto ea = serial.eta(trip, 2, now);
    const auto eb = threaded.eta(trip, 2, now);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (ea.has_value()) {
      EXPECT_EQ(*ea, *eb);
    }
  }
}

TEST(ConcurrentDeterminism, RepeatedThreadedRunsAreStable) {
  // Two independent threaded runs of the same script agree with each
  // other (a cheap guard against schedule-dependent state).
  testing::MiniCity city;
  sim::TrafficModel traffic(23);
  const ChaosScript script(city, traffic, 1500);

  ServerConfig config;
  config.engine.workers = 4;
  config.engine.queue_capacity = 32;

  std::vector<std::vector<Fix>> runs[2];
  for (int run = 0; run < 2; ++run) {
    WiLocatorServer server({&city.route_a(), &city.route_b()},
                           city.ap_snapshot(), city.model,
                           DaySlots::paper_five_slots(), config);
    apply_batched(server, script, /*batch_size=*/61);
    for (const TripId trip : script.trips)
      runs[run].push_back(server.tracker(trip).fixes());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t t = 0; t < runs[0].size(); ++t) {
    ASSERT_EQ(runs[0][t].size(), runs[1][t].size()) << "trip index " << t;
    for (std::size_t i = 0; i < runs[0][t].size(); ++i) {
      EXPECT_EQ(runs[0][t][i].time, runs[1][t][i].time);
      EXPECT_EQ(runs[0][t][i].route_offset, runs[1][t][i].route_offset);
    }
  }
}

}  // namespace
}  // namespace wiloc::core
