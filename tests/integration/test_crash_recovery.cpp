// Crash-recovery chaos test (the durable-state counterpart of
// test_fault_injection.cpp): a server with persistence enabled ingests
// ~10k faulted scans while the "process" is killed at three different
// points inside the persistence layer — mid journal append, on a torn
// final journal frame, and between snapshot write and rename. After
// each death a fresh server recovers from the state directory and the
// interrupted delivery round is re-fed (an at-least-once upstream).
// At the end, the crashed-and-recovered server's predictions must match
// the uncrashed baseline within tolerance, and the torn journal tails
// must have been skipped (persist.corrupt) rather than aborting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "core/server.hpp"
#include "sim/fault_injector.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using roadnet::TripId;

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("wiloc_crash_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

struct TripStream {
  TripId trip;
  roadnet::RouteId route;
  std::vector<sim::ScanReport> reports;
};
using Round = std::vector<TripStream>;

/// The harness: one shared scenario (training set + pre-faulted chaos
/// rounds), deterministic, so the baseline and the crashing run see
/// byte-identical input.
struct CrashScenario {
  testing::MiniCity city;
  sim::TrafficModel traffic{17};
  std::vector<TravelObservation> training;
  std::vector<Round> rounds;
  std::size_t total_scans = 0;

  CrashScenario() {
    Rng rng(2024);
    const rf::Scanner scanner;

    std::uint32_t trip_id = 1000;
    for (int day = 0; day < 2; ++day)
      for (std::size_t r = 0; r < city.routes.size(); ++r)
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r], traffic,
              at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            training.push_back({city.routes[r].edges()[seg.edge_index],
                                city.routes[r].id(), seg.exit,
                                seg.travel_time()});
          }
        }

    // Base streams: 5 staggered trips per route on day 2.
    std::vector<std::pair<roadnet::RouteId, std::vector<sim::ScanReport>>>
        base;
    for (std::size_t r = 0; r < city.routes.size(); ++r)
      for (int k = 0; k < 5; ++k) {
        const auto trip = sim::simulate_trip(
            TripId(static_cast<std::uint32_t>(900 + r * 10 + k)),
            city.routes[r], city.profiles[r], traffic,
            at_day_time(2, hms(7) + 2400.0 * k), rng);
        base.emplace_back(city.routes[r].id(),
                          sim::sense_trip(trip, city.routes[r], city.aps,
                                          city.model, scanner, rng));
      }

    const auto profile = sim::FaultProfile::uniform(0.12);
    std::uint32_t next_trip = 10000;
    for (int round = 0; total_scans < 10000; ++round) {
      Round streams;
      for (std::size_t j = 0; j < base.size(); ++j) {
        sim::FaultInjector injector(
            profile, static_cast<std::uint64_t>(round) * 131 + j + 1);
        auto faulted = injector.apply(base[j].second);
        total_scans += faulted.size();
        streams.push_back(
            {TripId(next_trip++), base[j].first, std::move(faulted)});
      }
      rounds.push_back(std::move(streams));
    }
  }

  std::unique_ptr<WiLocatorServer> make_server(
      const std::string& dir, journal::FailureHook hook = {}) const {
    ServerConfig config;
    if (!dir.empty()) {
      config.persist.dir = dir;
      config.persist.journal_trigger_bytes = 2048;  // frequent compaction
      config.persist.fsync = journal::FsyncPolicy::never;  // test speed
      config.persist.failure_hook = std::move(hook);
    }
    return std::make_unique<WiLocatorServer>(
        std::vector<const roadnet::BusRoute*>{&city.route_a(),
                                              &city.route_b()},
        city.ap_snapshot(), city.model, DaySlots::paper_five_slots(),
        config);
  }

  void train(WiLocatorServer& server) const {
    for (const auto& o : training) server.load_history(o);
    server.finalize_history();
  }

  /// Delivers one chaos round, interleaved round-robin across its trips.
  /// CrashError (the simulated process death) propagates to the caller.
  void feed_round(WiLocatorServer& server, const Round& round) const {
    for (const TripStream& s : round) server.begin_trip(s.trip, s.route);
    std::size_t pos = 0;
    bool more = true;
    while (more) {
      more = false;
      for (const TripStream& s : round) {
        if (pos >= s.reports.size()) continue;
        more = true;
        server.ingest(s.trip, s.reports[pos].scan);
      }
      ++pos;
    }
    for (const TripStream& s : round) server.end_trip(s.trip);
  }

  /// Segment predictions probed mid-morning of the chaos day — the
  /// output whose parity the recovery protocol must preserve.
  std::vector<std::optional<double>> probe(
      const WiLocatorServer& server) const {
    std::vector<std::optional<double>> out;
    const SimTime t = at_day_time(2, hms(8, 30));
    for (const auto& route : city.routes)
      for (const auto edge : route.edges())
        out.push_back(
            server.predictor().predict_segment_time(edge, route.id(), t));
    return out;
  }
};

TEST(CrashRecovery, TenThousandScansWithThreeCrashPoints) {
  const CrashScenario scenario;
  ASSERT_GE(scenario.total_scans, 10000u);

  // -- baseline: same stream, no persistence, no crashes ----------------
  auto baseline = scenario.make_server("");
  scenario.train(*baseline);
  for (const Round& round : scenario.rounds)
    scenario.feed_round(*baseline, round);
  const auto expected = scenario.probe(*baseline);

  // -- crashing run -----------------------------------------------------
  TempDir dir;
  const std::vector<sim::CrashPoint> points = {
      sim::CrashPoint::mid_journal_append,
      sim::CrashPoint::torn_journal_frame,
      sim::CrashPoint::mid_snapshot_rename,
  };
  // One injector per planned death; armed one at a time, in order, only
  // after training (the online phase is what the harness targets).
  std::size_t next_point = 0;
  std::vector<std::unique_ptr<sim::CrashInjector>> injectors;

  auto arm_next = [&]() -> journal::FailureHook {
    if (next_point >= points.size()) return {};
    // Let some post-(re)start appends/checkpoints succeed first, so each
    // death interrupts a *running* server, not the recovery itself.
    const std::uint64_t trigger =
        points[next_point] == sim::CrashPoint::mid_snapshot_rename ? 2 : 25;
    injectors.push_back(std::make_unique<sim::CrashInjector>(
        points[next_point], trigger));
    ++next_point;
    return injectors.back()->hook();
  };

  auto server = scenario.make_server(dir.path());
  scenario.train(*server);
  server->checkpoint();
  server.reset();  // clean shutdown

  // Restart with the first crash armed (recovering the just-written
  // training checkpoint on the way up).
  server = scenario.make_server(dir.path(), arm_next());
  ASSERT_TRUE(server->recovered());

  std::size_t deaths = 0;
  for (const Round& round : scenario.rounds) {
    for (;;) {
      try {
        scenario.feed_round(*server, round);
        break;
      } catch (const sim::CrashError&) {
        // Process died mid-persistence. Tear the server down (its
        // destructor must NOT complete the interrupted write), restart
        // over the same directory, and re-deliver the whole round — the
        // upstream is at-least-once and replay must dedup.
        ++deaths;
        const sim::CrashPoint died_at = injectors.back()->point();
        EXPECT_TRUE(injectors.back()->fired());
        server.reset();

        server = scenario.make_server(dir.path(), arm_next());
        EXPECT_TRUE(server->recovered());
        EXPECT_TRUE(server->store().finalized());
        const auto metrics = server->metrics_snapshot();
        if (died_at == sim::CrashPoint::mid_journal_append ||
            died_at == sim::CrashPoint::torn_journal_frame) {
          // The killed append left a torn frame: recovery must skip it
          // and count it, never abort.
          EXPECT_GE(metrics.counter("persist.corrupt"), 1u)
              << to_string(died_at);
        }
        EXPECT_GT(metrics.counter("persist.recovered") +
                      metrics.counter("persist.skipped"),
                  0u)
            << to_string(died_at);
      }
    }
  }
  EXPECT_EQ(deaths, points.size());  // every planned crash point fired

  // -- parity -----------------------------------------------------------
  const auto actual = scenario.probe(*server);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].has_value(), expected[i].has_value()) << i;
    if (expected[i].has_value()) {
      EXPECT_NEAR(*actual[i], *expected[i], 1.0) << "edge probe " << i;
    }
  }
}

TEST(CrashRecovery, GarbageJournalTailNeverAborts) {
  testing::MiniCity city;
  TempDir dir;
  ServerConfig config;
  config.persist.dir = dir.path();
  {
    WiLocatorServer server({&city.route_a()}, city.ap_snapshot(),
                           city.model, DaySlots::paper_five_slots(),
                           config);
    server.load_history({city.route_a().edges()[0], city.route_a().id(),
                         hms(8), 60.0});
    server.checkpoint();
  }
  // Smash arbitrary garbage onto the journal tail.
  {
    std::ofstream out(dir.path() + "/state.journal",
                      std::ios::binary | std::ios::app);
    out << "\xde\xad\xbe\xef garbage tail";
  }
  WiLocatorServer server({&city.route_a()}, city.ap_snapshot(), city.model,
                         DaySlots::paper_five_slots(), config);
  EXPECT_TRUE(server.recovered());
  EXPECT_GE(server.metrics_snapshot().counter("persist.corrupt"), 1u);
  EXPECT_EQ(server.store().raw_history().size(), 1u);
}

}  // namespace
}  // namespace wiloc::core
