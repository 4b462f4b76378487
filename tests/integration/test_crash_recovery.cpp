// Crash-recovery chaos test (the durable-state arm of the shared chaos
// schedule): a server with persistence enabled ingests ~10k faulted
// scans while the "process" is killed at three different points inside
// the persistence layer — mid journal append, on a torn final journal
// frame, and between snapshot write and rename. After each death a fresh
// server recovers from the state directory and the interrupted delivery
// round is re-fed (an at-least-once upstream). The recovered learned
// state must equal the uncrashed serial run's byte for byte, and the
// torn journal tails must have been skipped (persist.corrupt) rather
// than aborting.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../chaos_schedule.hpp"
#include "../helpers.hpp"
#include "core/server.hpp"
#include "sim/fault_injector.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using testing::ChaosRound;
using testing::ChaosSchedule;

TEST(CrashRecovery, TenThousandScansWithThreeCrashPoints) {
  for (const std::uint64_t seed : testing::kChaosSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChaosSchedule schedule(seed, 10000);
    ASSERT_GE(schedule.scans, 10000u);

    // -- reference: same schedule, no persistence, no crashes -----------
    auto reference = schedule.make_server();
    schedule.train(*reference);
    const auto trained = testing::store_bytes(*reference);
    for (const ChaosRound& round : schedule.rounds)
      testing::apply_serial(*reference, round);
    const auto expected = testing::store_bytes(*reference);

    // -- crashing run -----------------------------------------------------
    testing::TempDir dir("wiloc_crash_test");
    // One injector per planned death; armed one at a time, in order, only
    // after training (the online phase is what the harness targets).
    std::size_t next = 0;
    std::vector<std::unique_ptr<sim::CrashInjector>> injectors;
    const auto make_server = [&](bool arm) {
      ServerConfig config;
      config.persist.dir = dir.path();
      config.persist.journal_trigger_bytes = 2048;  // frequent compaction
      config.persist.fsync = journal::FsyncPolicy::never;  // test speed
      if (arm && next < schedule.crashes.size()) {
        const testing::PlannedCrash& crash = schedule.crashes[next++];
        injectors.push_back(
            std::make_unique<sim::CrashInjector>(crash.point, crash.trigger));
        config.persist.failure_hook = injectors.back()->hook();
      }
      return schedule.make_server(config);
    };

    auto server = make_server(false);
    schedule.train(*server);
    server->checkpoint();
    server.reset();  // clean shutdown

    // Restart with the first crash armed, recovering the just-written
    // training checkpoint on the way up: the clean-restart arm.
    server = make_server(true);
    ASSERT_TRUE(server->recovered());
    EXPECT_TRUE(testing::same_bytes(testing::store_bytes(*server), trained));

    std::size_t deaths = 0;
    for (const ChaosRound& round : schedule.rounds) {
      for (;;) {
        try {
          testing::apply_serial(*server, round);
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

          server = make_server(true);
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
    EXPECT_EQ(deaths, schedule.crashes.size());  // every planned crash fired

    // -- parity: the recovered learned state is the reference's -----------
    EXPECT_TRUE(testing::same_bytes(testing::store_bytes(*server), expected));
  }
}

TEST(CrashRecovery, GarbageJournalTailNeverAborts) {
  testing::MiniCity city;
  testing::TempDir dir("wiloc_crash_test");
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
    std::ofstream out(dir.path("state.journal"),
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
