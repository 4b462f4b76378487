#include "core/persist.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "../helpers.hpp"
#include "core/seasonal.hpp"
#include "core/server.hpp"
#include "core/traffic_map.hpp"
#include "sim/fault_injector.hpp"

namespace wiloc::core {
namespace {

using wiloc::testing::TempDir;

using roadnet::EdgeId;
using roadnet::RouteId;
using roadnet::TripId;

TravelObservation obs_at(std::uint32_t edge, std::uint32_t route,
                         SimTime exit_time, double travel_time) {
  return {EdgeId(edge), RouteId(route), exit_time, travel_time};
}

// -- component round-trips -------------------------------------------------

TEST(TravelTimeStorePersist, SaveRestoreRoundTrip) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  Rng rng(11);
  for (int i = 0; i < 400; ++i)
    store.add_history(obs_at(static_cast<std::uint32_t>(i % 7),
                             static_cast<std::uint32_t>(i % 3),
                             at_day_time(i % 5, rng.uniform(0.0, 86400.0)),
                             rng.uniform(20.0, 180.0)));
  store.finalize_history();
  for (int i = 0; i < 60; ++i)
    store.add_recent(obs_at(static_cast<std::uint32_t>(i % 7),
                            static_cast<std::uint32_t>(i % 3),
                            at_day_time(6, 30000.0 + 60.0 * i),
                            rng.uniform(20.0, 180.0)));

  BinWriter w;
  store.save(w);
  TravelTimeStore copy(DaySlots::uniform(3));  // different shape on purpose
  BinReader r(w.bytes());
  copy.restore(r);
  EXPECT_TRUE(r.done());

  EXPECT_TRUE(copy.slots() == store.slots());
  EXPECT_TRUE(copy.finalized());
  for (std::uint32_t e = 0; e < 7; ++e) {
    for (std::uint32_t route = 0; route < 3; ++route)
      for (std::size_t slot = 0; slot < store.slots().count(); ++slot)
        EXPECT_EQ(copy.historical_mean(EdgeId(e), RouteId(route), slot),
                  store.historical_mean(EdgeId(e), RouteId(route), slot));
    for (std::size_t slot = 0; slot < store.slots().count(); ++slot) {
      EXPECT_EQ(copy.historical_mean_any_route(EdgeId(e), slot),
                store.historical_mean_any_route(EdgeId(e), slot));
      EXPECT_EQ(copy.residual_mean(EdgeId(e), slot),
                store.residual_mean(EdgeId(e), slot));
      EXPECT_EQ(copy.residual_stddev(EdgeId(e), slot),
                store.residual_stddev(EdgeId(e), slot));
    }
    EXPECT_EQ(copy.history_count(EdgeId(e)), store.history_count(EdgeId(e)));
    EXPECT_EQ(copy.recent(EdgeId(e), at_day_time(6, 34000.0), 3600.0, 8),
              store.recent(EdgeId(e), at_day_time(6, 34000.0), 3600.0, 8));
  }
}

TEST(TravelTimeStorePersist, SaveBytesDependOnlyOnLearnedState) {
  // The same traversals fed edge by edge in opposite edge orders (each
  // edge's own sequence unchanged) are the same learned state, and a
  // restored store is the state it was saved from.
  const auto fill = [](TravelTimeStore& store, bool reverse) {
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) store.finalize_history();
      for (int k = 0; k < 9; ++k) {
        const auto e = static_cast<std::uint32_t>(reverse ? 8 - k : k);
        for (int i = 0; i < 30; ++i) {
          const auto obs =
              obs_at(e, static_cast<std::uint32_t>(i % 3),
                     at_day_time(pass == 0 ? i % 4 : 5, 2700.0 * i + e),
                     30.0 + 7.0 * e + i);
          if (pass == 0) {
            store.add_history(obs);
          } else {
            store.add_recent(obs);
          }
        }
      }
    }
  };
  const auto save = [](const TravelTimeStore& store) {
    BinWriter w;
    store.save(w);
    return w.take();
  };
  TravelTimeStore forward(DaySlots::paper_five_slots());
  TravelTimeStore backward(DaySlots::paper_five_slots());
  fill(forward, false);
  fill(backward, true);
  const std::vector<std::byte> bytes = save(forward);
  EXPECT_EQ(save(backward), bytes);

  TravelTimeStore restored(DaySlots::paper_five_slots());
  BinReader r(bytes);
  restored.restore(r);
  EXPECT_EQ(save(restored), bytes);
}

TEST(TravelTimeStorePersist, RestoreOfUnfinalizedKeepsRawHistory) {
  TravelTimeStore store(DaySlots::uniform(4));
  store.add_history(obs_at(1, 0, hms(8), 42.0));
  store.add_history(obs_at(2, 1, hms(9), 55.0));

  BinWriter w;
  store.save(w);
  TravelTimeStore copy(DaySlots::uniform(4));
  BinReader r(w.bytes());
  copy.restore(r);

  EXPECT_FALSE(copy.finalized());
  EXPECT_EQ(copy.raw_history(), store.raw_history());
  copy.finalize_history();  // restored raw history still finalizes
  EXPECT_TRUE(copy.historical_mean(EdgeId(1), RouteId(0),
                                   copy.slots().slot_of(hms(8)))
                  .has_value());
}

TEST(TravelTimeStorePersist, RestoreRejectsGarbage) {
  TravelTimeStore store(DaySlots::uniform(4));
  BinWriter w;
  w.put_u8(99);  // unknown version
  BinReader r(w.bytes());
  EXPECT_THROW(store.restore(r), DecodeError);
}

TEST(TravelTimeStorePersist, AddRecentDropsExactDuplicates) {
  TravelTimeStore store(DaySlots::uniform(4));
  const TravelObservation o = obs_at(3, 1, hms(12), 80.0);
  EXPECT_TRUE(store.add_recent(o));
  EXPECT_FALSE(store.add_recent(o));  // exact duplicate
  // Same instant, different measurement: two buses can genuinely exit
  // together, so only *exact* duplicates are dropped.
  EXPECT_TRUE(store.add_recent(obs_at(3, 1, hms(12), 81.0)));
  EXPECT_TRUE(store.add_recent(obs_at(3, 2, hms(12), 80.0)));
  EXPECT_EQ(store.recent(EdgeId(3), hms(12), 600.0, 8).size(), 3u);
}

TEST(SeasonalPersist, SnapshotRoundTrip) {
  TempDir tmp("wiloc_persist_test");
  SeasonalIndexAnalyzer analyzer(24);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double tod = rng.uniform(0.0, 86400.0);
    const double rush = (tod > hms(8) && tod < hms(10)) ? 1.8 : 1.0;
    analyzer.add(EdgeId(static_cast<std::uint32_t>(i % 4)), tod,
                 rush * rng.uniform(50.0, 70.0));
  }

  const std::string path = tmp.path("seasonal.snapshot");
  analyzer.save_snapshot(path);

  SeasonalIndexAnalyzer restored(24);
  ASSERT_TRUE(restored.restore_snapshot(path));
  for (std::uint32_t e = 0; e < 4; ++e) {
    EXPECT_EQ(restored.profile(EdgeId(e)), analyzer.profile(EdgeId(e)));
    for (std::size_t slot = 0; slot < 24; ++slot)
      EXPECT_EQ(restored.seasonal_index(EdgeId(e), slot),
                analyzer.seasonal_index(EdgeId(e), slot));
  }
  // Missing file is a cold start, not an error.
  SeasonalIndexAnalyzer cold(24);
  EXPECT_FALSE(cold.restore_snapshot(tmp.path("absent")));
}

TEST(PredictorFingerprint, SensitiveToOptions) {
  const PredictorOptions base;
  PredictorOptions other = base;
  EXPECT_EQ(options_fingerprint(base), options_fingerprint(other));
  other.recent_window_s += 1.0;
  EXPECT_NE(options_fingerprint(base), options_fingerprint(other));
  other = base;
  other.cross_route = !other.cross_route;
  EXPECT_NE(options_fingerprint(base), options_fingerprint(other));

  // And the combined state fingerprint also covers the slot partition.
  const auto fp = options_fingerprint(base);
  EXPECT_NE(state_fingerprint(DaySlots::paper_five_slots(), fp),
            state_fingerprint(DaySlots::uniform(5), fp));
}

// -- StatePersistence ------------------------------------------------------

TEST(StatePersistence, JournalRecoverRoundTrip) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::history_obs, obs_at(1, 0, hms(8), 60.0));
  persistence.stage(JournalRecord::recent_obs, obs_at(2, 1, hms(9), 75.0));
  EXPECT_EQ(persistence.last_seq(), 2u);
  persistence.flush();

  StatePersistence fresh(config);
  const auto rec = fresh.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_TRUE(rec.replay.clean());
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].seq, 1u);
  EXPECT_EQ(rec.records[0].type, JournalRecord::history_obs);
  EXPECT_EQ(rec.records[0].obs, obs_at(1, 0, hms(8), 60.0));
  EXPECT_EQ(rec.records[1].seq, 2u);
  EXPECT_EQ(rec.records[1].type, JournalRecord::recent_obs);
  EXPECT_EQ(rec.records[1].obs, obs_at(2, 1, hms(9), 75.0));
}

TEST(StatePersistence, StagedFramesReachDiskAtFlushInOneWrite) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();
  obs::Registry registry;
  PersistMetrics metrics;
  metrics.journal_writes = &registry.counter("persist.journal_writes");
  metrics.journal_appends = &registry.counter("persist.journal_appends");

  StatePersistence persistence(config);
  persistence.set_metrics(metrics);
  for (std::uint32_t e = 1; e <= 3; ++e)
    persistence.stage(JournalRecord::history_obs,
                      obs_at(e, 0, hms(8), 60.0 + e));
  EXPECT_EQ(persistence.last_seq(), 3u);
  // Staged frames count toward the size trigger but are not on disk.
  const std::uint64_t staged = persistence.staged_bytes();
  EXPECT_GT(staged, 0u);
  EXPECT_EQ(persistence.journal_bytes(), staged);
  EXPECT_EQ(std::filesystem::file_size(persistence.journal_path()), 0u);
  EXPECT_TRUE(StatePersistence(config).recover().records.empty());
  EXPECT_EQ(registry.counter("persist.journal_writes").value(), 0u);

  persistence.flush();
  EXPECT_EQ(persistence.staged_bytes(), 0u);
  EXPECT_EQ(persistence.journal_bytes(), staged);
  EXPECT_EQ(std::filesystem::file_size(persistence.journal_path()), staged);
  EXPECT_EQ(registry.counter("persist.journal_writes").value(), 1u);
  EXPECT_EQ(registry.counter("persist.journal_appends").value(), 3u);
  persistence.flush();  // nothing staged: no write
  EXPECT_EQ(registry.counter("persist.journal_writes").value(), 1u);

  const auto rec = StatePersistence(config).recover();
  EXPECT_TRUE(rec.replay.clean());
  ASSERT_EQ(rec.records.size(), 3u);
  for (std::uint32_t e = 1; e <= 3; ++e) {
    EXPECT_EQ(rec.records[e - 1].seq, e);
    EXPECT_EQ(rec.records[e - 1].obs, obs_at(e, 0, hms(8), 60.0 + e));
  }
}

TEST(StatePersistence, CheckpointTruncatesJournal) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
  EXPECT_GT(persistence.journal_bytes(), 0u);

  persistence.seal_journal();
  BinWriter body;
  body.put_u64(persistence.last_seq());
  persistence.commit_checkpoint(body.bytes(), hms(8));
  EXPECT_EQ(persistence.journal_bytes(), 0u);

  StatePersistence fresh(config);
  const auto rec = fresh.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_TRUE(rec.records.empty());
}

TEST(StatePersistence, FailedSealPoisonsAndRefusesAppend) {
  // Regression: a failed seal left the journal writer closed, and the
  // next append dereferenced it.
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
  // A directory squatting on the sealed path makes the seal fail.
  std::filesystem::create_directory(persistence.sealed_journal_path());
  EXPECT_ANY_THROW(persistence.seal_journal());
  EXPECT_TRUE(persistence.poisoned());
  EXPECT_THROW(
      persistence.stage(JournalRecord::recent_obs, obs_at(2, 0, hms(9), 61.0)),
      StateError);
  EXPECT_THROW(persistence.seal_journal(), StateError);
  EXPECT_EQ(persistence.journal_bytes(), 0u);
  EXPECT_NO_THROW(persistence.should_checkpoint(hms(9)));
}

TEST(StatePersistence, SizeTriggerForcesCheckpoint) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();
  config.journal_trigger_bytes = 64;  // tiny: a couple of appends
  config.snapshot_interval_s = 1e9;   // interval never fires

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8) + 30.0,
                                                       61.0));
  EXPECT_TRUE(persistence.should_checkpoint(hms(8) + 30.0));
}

// -- server-level persistence ----------------------------------------------

struct PersistServerFixture {
  testing::MiniCity city;
  sim::TrafficModel traffic{31};

  ServerConfig config_with(const std::string& dir) const {
    ServerConfig config;
    config.persist.dir = dir;
    return config;
  }

  std::unique_ptr<WiLocatorServer> make_server(ServerConfig config = {}) {
    return std::make_unique<WiLocatorServer>(
        std::vector<const roadnet::BusRoute*>{&city.route_a(),
                                              &city.route_b()},
        city.ap_snapshot(), city.model, DaySlots::paper_five_slots(),
        config);
  }

  std::vector<TravelObservation> training_set(int days = 2) {
    std::vector<TravelObservation> out;
    Rng rng(55);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < days; ++day)
      for (std::size_t r = 0; r < city.routes.size(); ++r)
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r], traffic,
              at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            out.push_back({city.routes[r].edges()[seg.edge_index],
                           city.routes[r].id(), seg.exit,
                           seg.travel_time()});
          }
        }
    return out;
  }
};

TEST(ServerPersist, LoadHistoryIsIdempotent) {
  // Regression: feeding the same training file twice (or replaying a
  // journal over a snapshot that already contains it) must not skew the
  // historical means.
  PersistServerFixture f;
  const auto training = f.training_set();

  auto once = f.make_server();
  for (const auto& o : training) once->load_history(o);
  once->finalize_history();
  // The simulated training set may itself contain coincidental exact
  // duplicates; the second full feed adds exactly training.size() more.
  const std::uint64_t internal_dups =
      once->metrics_snapshot().counter("server.history_duplicates");

  auto twice = f.make_server();
  for (const auto& o : training) twice->load_history(o);
  for (const auto& o : training) twice->load_history(o);  // duplicate feed
  twice->finalize_history();

  EXPECT_EQ(twice->metrics_snapshot().counter("server.history_duplicates"),
            internal_dups + training.size());
  for (const auto edge : f.city.route_a().edges())
    for (std::size_t slot = 0; slot < 5; ++slot)
      EXPECT_EQ(
          twice->store().historical_mean(edge, f.city.route_a().id(), slot),
          once->store().historical_mean(edge, f.city.route_a().id(), slot));
}

TEST(ServerPersist, OfflineLoadCheckpointsOnlyOnSize) {
  // The interval trigger counts online time. A multi-day history load
  // sweeps its clock through days in moments, so it must not checkpoint
  // every interval; only the journal size (and finalize) may.
  PersistServerFixture f;
  const auto training = f.training_set(3);
  const auto snapshots = [](const WiLocatorServer& s) {
    return s.metrics_snapshot().counter("persist.snapshots");
  };
  const auto means = [&](const WiLocatorServer& s) {
    std::vector<std::optional<double>> out;
    for (const auto* route : {&f.city.route_a(), &f.city.route_b()})
      for (const auto edge : route->edges())
        for (std::size_t slot = 0; slot < 5; ++slot)
          out.push_back(s.store().historical_mean(edge, route->id(), slot));
    return out;
  };

  for (const std::uint64_t trigger : {std::uint64_t{1} << 30,
                                      std::uint64_t{2048}}) {
    SCOPED_TRACE(trigger);
    TempDir tmp("wiloc_persist_test");
    ServerConfig config = f.config_with(tmp.path());
    config.persist.journal_trigger_bytes = trigger;
    ASSERT_EQ(config.persist.snapshot_interval_s, 15.0 * 60.0);

    auto server = f.make_server(config);
    for (const auto& o : training) server->load_history(o);
    const std::uint64_t during_load = snapshots(*server);
    server->finalize_history();
    if (trigger == 2048) {
      EXPECT_GT(during_load, 0u);  // the size trigger still bounds recovery
      EXPECT_EQ(snapshots(*server), during_load + 1);
    } else {
      EXPECT_EQ(during_load, 0u);
      EXPECT_EQ(snapshots(*server), 1u);
    }
    const auto expected = means(*server);
    server.reset();

    auto restarted = f.make_server(config);
    EXPECT_TRUE(restarted->recovered());
    EXPECT_TRUE(restarted->store().finalized());
    EXPECT_EQ(means(*restarted), expected);
  }
}

TEST(ServerPersist, CheckpointAndRecover) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  const auto training = f.training_set();

  std::vector<std::pair<EdgeId, std::optional<double>>> expected;
  {
    auto server = f.make_server(f.config_with(tmp.path()));
    EXPECT_FALSE(server->recovered());
    for (const auto& o : training) server->load_history(o);
    server->finalize_history();
    server->checkpoint();
    for (const auto edge : f.city.route_a().edges())
      expected.emplace_back(edge, server->predictor().predict_segment_time(
                                      edge, f.city.route_a().id(),
                                      at_day_time(3, hms(9))));
  }  // graceful shutdown: final checkpoint

  auto restarted = f.make_server(f.config_with(tmp.path()));
  EXPECT_TRUE(restarted->recovered());
  EXPECT_TRUE(restarted->store().finalized());
  for (const auto& [edge, value] : expected)
    EXPECT_EQ(restarted->predictor().predict_segment_time(
                  edge, f.city.route_a().id(), at_day_time(3, hms(9))),
              value);
}

TEST(ServerPersist, JournalWritesBoundedPerLoadAndOnePerPublishBatch) {
  // Work-budget pin: persist.journal_writes counts write(2) calls on the
  // journal. A history load stages its frames and flushes each time
  // kHistoryFlushBytes accumulate, so loading B frame bytes takes at
  // most ceil(B / kHistoryFlushBytes) + 1 writes, the last at finalize
  // (one write per frame would fail here), and each publish journals
  // its whole fold batch in at most one write.
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  ServerConfig config = f.config_with(tmp.path());
  config.persist.snapshot_interval_s = 1e12;
  config.persist.journal_trigger_bytes = 1ull << 40;
  auto server = f.make_server(config);
  const auto counter = [&](const char* name) {
    return server->metrics_snapshot().counter(name);
  };

  // Ten days of history: enough frames for flushes during the load.
  const auto training = f.training_set(10);
  for (const auto& o : training) server->load_history(o);
  // Every load frame is on disk or staged; none is checkpointed away.
  const std::uint64_t load_bytes = server->persistence()->journal_bytes();
  const std::uint64_t flush_bytes = StatePersistence::kHistoryFlushBytes;
  const std::uint64_t budget = (load_bytes + flush_bytes - 1) / flush_bytes;
  // Each flush during the load writes at least flush_bytes.
  EXPECT_LE(counter("persist.journal_writes"), load_bytes / flush_bytes);
  EXPECT_GT(counter("persist.journal_writes"), 0u);  // not all held back
  server->finalize_history();
  const std::uint64_t frames =
      training.size() - counter("server.history_duplicates");
  EXPECT_EQ(counter("persist.journal_appends"), frames);
  EXPECT_LE(counter("persist.journal_writes"), budget + 1);
  EXPECT_GT(frames, budget + 1);  // the bound is far below one per frame

  const std::uint64_t writes0 = counter("persist.journal_writes");
  const std::uint64_t appends0 = counter("persist.journal_appends");
  Rng rng(9);
  const auto trip =
      sim::simulate_trip(TripId(77), f.city.route_a(), f.city.profiles[0],
                         f.traffic, at_day_time(3, hms(9)), rng);
  const auto reports = sim::sense_trip(trip, f.city.route_a(), f.city.aps,
                                       f.city.model, rf::Scanner{}, rng);
  server->begin_trip(TripId(77), f.city.route_a().id());
  std::uint64_t publishes = 0;
  for (std::size_t i = 0; i < reports.size(); i += 50) {
    std::vector<ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, reports.size()); ++j)
      batch.push_back({TripId(77), reports[j].scan});
    server->ingest_batch(batch);
    ++publishes;
  }
  server->drain();
  ++publishes;
  const std::uint64_t writes = counter("persist.journal_writes") - writes0;
  const std::uint64_t appends = counter("persist.journal_appends") - appends0;
  EXPECT_LE(writes, publishes);
  EXPECT_GT(appends, writes);  // some batch carried several frames
}

// -- staged history frames -------------------------------------------------

/// The bytes of the snapshot file a server writes for its current state:
/// [fingerprint][journal watermark][store], as checkpoints embed it.
std::string snapshot_bytes(WiLocatorServer& server, const std::string& path) {
  server.save_snapshot(path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A history load that never crashed, in its own state directory: the
/// unique observations in load order, and its finalized snapshot.
struct CleanLoad {
  std::vector<TravelObservation> history;
  std::uint64_t frame_bytes = 0;  ///< one history frame, header included
  std::string snapshot;
};

CleanLoad clean_load(PersistServerFixture& f,
                     const std::vector<TravelObservation>& training) {
  TempDir tmp("wiloc_persist_test");
  auto server = f.make_server(f.config_with(tmp.path("state")));
  for (const auto& o : training) server->load_history(o);
  CleanLoad out;
  out.history = server->store().raw_history();
  out.frame_bytes =
      server->persistence()->journal_bytes() / out.history.size();
  server->finalize_history();
  out.snapshot = snapshot_bytes(*server, tmp.path("clean.snapshot"));
  return out;
}

/// Recovers the directory, checks it holds exactly the first `prefix`
/// history observations, then reloads the full history and checks the
/// finalized state is byte-identical to the clean load's.
void expect_prefix_then_convergence(
    PersistServerFixture& f, const std::string& dir, std::size_t prefix,
    const std::vector<TravelObservation>& training, const CleanLoad& clean) {
  auto restarted = f.make_server(f.config_with(dir));
  EXPECT_TRUE(restarted->recovered());
  EXPECT_FALSE(restarted->store().finalized());
  const auto& recovered = restarted->store().raw_history();
  ASSERT_EQ(recovered.size(), prefix);
  for (std::size_t i = 0; i < prefix; ++i)
    ASSERT_EQ(recovered[i], clean.history[i]) << i;
  EXPECT_EQ(restarted->persistence()->last_seq(), prefix);

  for (const auto& o : training) restarted->load_history(o);  // the rerun
  restarted->finalize_history();
  EXPECT_EQ(snapshot_bytes(*restarted, dir + "/rerun.snapshot"),
            clean.snapshot);
}

TEST(ServerPersist, KillInsideStagedFlushKeepsFramePrefix) {
  // Ten days of history stage ~2300 frames: one 64 KiB flush during the
  // load, the rest flushed by finalize's seal. A kill at frame k of
  // either flush leaves frames 1..k-1 plus a torn frame k on disk.
  PersistServerFixture f;
  const auto training = f.training_set(10);
  const CleanLoad clean = clean_load(f, training);
  const std::uint64_t per_flush =
      (StatePersistence::kHistoryFlushBytes + clean.frame_bytes - 1) /
      clean.frame_bytes;
  ASSERT_GT(clean.history.size(), per_flush + 100);
  ASSERT_LT(clean.history.size(), 2 * per_flush);

  for (const std::uint64_t kill_at :
       {std::uint64_t{700}, std::uint64_t{per_flush + 50}}) {
    SCOPED_TRACE(kill_at);
    TempDir tmp("wiloc_persist_test");
    sim::CrashInjector crash(sim::CrashPoint::mid_journal_append, kill_at);
    ServerConfig config = f.config_with(tmp.path());
    config.persist.failure_hook = crash.hook();
    auto server = f.make_server(config);
    bool loaded = false;
    EXPECT_THROW(
        {
          for (const auto& o : training) server->load_history(o);
          loaded = true;
          server->finalize_history();
        },
        sim::CrashError);
    EXPECT_TRUE(crash.fired());
    EXPECT_EQ(loaded, kill_at > per_flush);  // which flush the kill hit
    server.reset();  // poisoned: the destructor writes nothing more

    expect_prefix_then_convergence(f, tmp.path(), kill_at - 1, training,
                                   clean);
  }
}

TEST(ServerPersist, KillWithStagedFramesKeepsFlushedPrefix) {
  // A kill -9 while frames sit in the stage buffer: the disk holds what
  // the last flush wrote. Copying the live directory is that disk image.
  PersistServerFixture f;
  const auto training = f.training_set(10);
  const CleanLoad clean = clean_load(f, training);
  TempDir tmp("wiloc_persist_test");
  auto server = f.make_server(f.config_with(tmp.path("live")));
  for (const auto& o : training) server->load_history(o);
  const StatePersistence& persist = *server->persistence();
  ASSERT_GT(persist.staged_bytes(), 0u);
  const std::uint64_t flushed =
      server->metrics_snapshot().counter("persist.journal_appends");
  ASSERT_GT(flushed, 0u);
  EXPECT_LT(flushed, persist.last_seq());
  std::filesystem::copy(tmp.path("live"), tmp.path("killed"));

  expect_prefix_then_convergence(f, tmp.path("killed"), flushed, training,
                                 clean);
}

TEST(ServerPersist, TailAndFinalizeSeeEveryStagedFrame) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  ServerConfig config = f.config_with(tmp.path("state"));
  config.persist.snapshot_interval_s = 1e12;
  auto server = f.make_server(config);
  const auto training = f.training_set(2);
  for (const auto& o : training) server->load_history(o);
  const StatePersistence& persist = *server->persistence();
  ASSERT_GT(persist.staged_bytes(), 0u);  // nothing flushed yet
  const std::uint64_t history = persist.last_seq();

  // A tailing peer's read flushes first: it sees every staged frame,
  // with contiguous sequence numbers.
  const auto page = server->tail_journal(0, 1 << 20);
  EXPECT_EQ(persist.staged_bytes(), 0u);
  EXPECT_EQ(page.records, history);
  std::uint64_t next = 1;
  journal::scan_frames(page.frames, [&](std::span<const std::byte> p) {
    const auto entry = decode_journal_entry(p);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->seq, next++);
    EXPECT_EQ(entry->type, JournalRecord::history_obs);
  });
  EXPECT_EQ(next, history + 1);

  // Frames staged after the tail are flushed by finalize's seal: its
  // snapshot covers every one of them.
  const TravelObservation extra{f.city.route_a().edges()[0],
                                f.city.route_a().id(),
                                at_day_time(5, hms(9)), 55.0};
  server->load_history(extra);
  EXPECT_GT(persist.staged_bytes(), 0u);
  server->finalize_history();
  EXPECT_EQ(persist.staged_bytes(), 0u);
  EXPECT_EQ(persist.last_seq(), history + 1);
  EXPECT_EQ(persist.compacted_through(), history + 1);

  // Live recent observations continue the sequence without a gap.
  Rng rng(9);
  const auto trip =
      sim::simulate_trip(TripId(77), f.city.route_a(), f.city.profiles[0],
                         f.traffic, at_day_time(6, hms(9)), rng);
  const auto reports = sim::sense_trip(trip, f.city.route_a(), f.city.aps,
                                       f.city.model, rf::Scanner{}, rng);
  server->begin_trip(TripId(77), f.city.route_a().id());
  for (const auto& report : reports) server->ingest(TripId(77), report.scan);
  server->end_trip(TripId(77));
  const auto recent = server->tail_journal(persist.compacted_through(),
                                           1 << 20);
  ASSERT_GT(recent.records, 0u);
  EXPECT_EQ(recent.first_seq, history + 2);
  EXPECT_EQ(recent.last_seq, persist.last_seq());
  EXPECT_EQ(recent.records, recent.last_seq - recent.first_seq + 1);
}

TEST(ServerPersist, JournalAloneRecoversWithoutSnapshot) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  const auto training = f.training_set(1);

  {
    auto config = f.config_with(tmp.path());
    // Keep everything in the journal: interval checkpoints off, and the
    // shutdown checkpoint dies before its rename (so no snapshot file
    // ever becomes visible and the journal is never truncated).
    config.persist.snapshot_interval_s = 1e12;
    config.persist.failure_hook = [](std::string_view site) {
      if (site == journal::kSiteSnapshotPreRename)
        throw std::runtime_error("snapshots disabled in this test");
    };
    auto server = f.make_server(config);
    for (const auto& o : training) server->load_history(o);
  }
  ASSERT_FALSE(
      std::filesystem::exists(tmp.path() + "/state.snapshot"));

  auto restarted = f.make_server(f.config_with(tmp.path()));
  EXPECT_TRUE(restarted->recovered());
  EXPECT_FALSE(restarted->store().finalized());
  std::unordered_set<ObservationKey, ObservationKey::Hash> unique;
  for (const auto& o : training) unique.insert(ObservationKey::of(o));
  EXPECT_EQ(restarted->store().raw_history().size(), unique.size());
  EXPECT_EQ(restarted->metrics_snapshot().counter("persist.recovered"),
            unique.size());
}

TEST(ServerPersist, ConfigDriftIsFlagged) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  {
    auto server = f.make_server(f.config_with(tmp.path()));
    server->load_history(obs_at(0, 0, hms(8), 60.0));
    server->finalize_history();
  }
  ServerConfig drifted = f.config_with(tmp.path());
  drifted.predictor.recent_window_s *= 2.0;  // changes the fingerprint
  auto restarted = f.make_server(drifted);
  EXPECT_TRUE(restarted->recovered());
  EXPECT_EQ(restarted->metrics_snapshot().counter("persist.config_mismatch"),
            1u);
}

TEST(ServerPersist, SaveRestoreSnapshotWithoutPersistenceDir) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  const auto training = f.training_set(1);

  auto warm = f.make_server();  // persistence disabled
  for (const auto& o : training) warm->load_history(o);
  warm->finalize_history();
  const std::string path = tmp.path("warm.snapshot");
  warm->save_snapshot(path);

  auto cold = f.make_server();
  EXPECT_FALSE(cold->restore_snapshot(tmp.path("absent")));
  ASSERT_TRUE(cold->restore_snapshot(path));
  EXPECT_TRUE(cold->recovered());
  for (const auto edge : f.city.route_a().edges())
    EXPECT_EQ(cold->predictor().predict_segment_time(
                  edge, f.city.route_a().id(), at_day_time(3, hms(9))),
              warm->predictor().predict_segment_time(
                  edge, f.city.route_a().id(), at_day_time(3, hms(9))));
}

TEST(ServerPersist, TrafficMapRebuiltAfterRestart) {
  // The traffic map is derived state: snapshots do not carry it, and a
  // recovered server rebuilds the identical map from the restored store.
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  const SimTime when = at_day_time(2, hms(9));
  TrafficMap before;
  {
    auto server = f.make_server(f.config_with(tmp.path()));
    for (const auto& o : f.training_set(1)) server->load_history(o);
    server->finalize_history();
    server->flush_arrivals();
    before = server->traffic_map(when);
  }  // graceful shutdown: final checkpoint
  ASSERT_FALSE(before.segments.empty());

  auto restarted = f.make_server(f.config_with(tmp.path()));
  ASSERT_TRUE(restarted->recovered());
  const TrafficMap after = restarted->traffic_map(when);
  EXPECT_DOUBLE_EQ(after.time, before.time);
  ASSERT_EQ(after.segments.size(), before.segments.size());
  for (const auto& [edge, seg] : before.segments) {
    const auto it = after.segments.find(edge);
    ASSERT_NE(it, after.segments.end());
    EXPECT_EQ(it->second.state, seg.state);
    EXPECT_EQ(it->second.z_score, seg.z_score);
    EXPECT_EQ(it->second.recent_count, seg.recent_count);
    EXPECT_EQ(it->second.inferred, seg.inferred);
  }

  // The first refresh after restart (here: a replicated observation
  // moves the event clock) publishes a traffic body built from the store.
  const roadnet::BusRoute& route = f.city.route_a();
  restarted->apply_replicated(JournalRecord::recent_obs,
                              {route.edges()[0], route.id(), when, 55.0});
  restarted->flush_arrivals();
  const auto snapshot = restarted->arrival_snapshot();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_NE(snapshot->traffic_body, nullptr);
  EXPECT_EQ(*snapshot->traffic_body,
            encode_traffic_map_json(restarted->traffic_map(snapshot->now)));
}

TEST(ServerPersist, UnknownSnapshotVersionFallsBackToJournal) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  // A CRC-clean body of a finalized server, stamped with a version this
  // build does not know: recovery must treat it as a foreign layout.
  {
    auto warm = f.make_server();
    for (const auto& o : f.training_set(1)) warm->load_history(o);
    warm->finalize_history();
    warm->save_snapshot(tmp.path("warm.snapshot"));
  }
  const auto warm = journal::read_snapshot_file(
      tmp.path("warm.snapshot"), StatePersistence::kSnapshotMagic);
  ASSERT_TRUE(warm.has_value());

  const ServerConfig config = f.config_with(tmp.path("state"));
  {
    StatePersistence persistence(config.persist);
    for (std::uint32_t e = 1; e <= 3; ++e)
      persistence.stage(JournalRecord::history_obs,
                        obs_at(e, 0, hms(8), 60.0));
    persistence.flush();
  }
  journal::write_snapshot_file(tmp.path("state") + "/state.snapshot",
                               StatePersistence::kSnapshotMagic, 99,
                               warm->body, /*do_fsync=*/false);

  auto restarted = f.make_server(config);
  EXPECT_TRUE(restarted->recovered());
  EXPECT_FALSE(restarted->store().finalized());
  EXPECT_EQ(restarted->store().raw_history().size(), 3u);
  EXPECT_GE(restarted->metrics_snapshot().counter("persist.corrupt"), 1u);
}

TEST(ServerPersist, VersionOneSnapshotStillRestores) {
  // A version-1 body is today's body followed by the retired traffic-map
  // section ([u8 has_map][f64 time][u64 n] + n segment records).
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  auto warm = f.make_server();
  for (const auto& o : f.training_set(1)) warm->load_history(o);
  warm->finalize_history();
  warm->save_snapshot(tmp.path("warm.snapshot"));
  const auto current = journal::read_snapshot_file(
      tmp.path("warm.snapshot"), StatePersistence::kSnapshotMagic);
  ASSERT_TRUE(current.has_value());

  BinWriter v1;
  v1.put_bytes(current->body);
  v1.put_u8(1);
  v1.put_f64(at_day_time(2, hms(9)));
  v1.put_u64(1);
  v1.put_u32(f.city.route_a().edges()[0].value());
  v1.put_u8(static_cast<std::uint8_t>(TrafficState::Slow));
  v1.put_f64(1.2);
  v1.put_u64(3);
  v1.put_u8(0);
  std::filesystem::create_directories(tmp.path("state"));
  for (const std::string& path :
       {tmp.path("v1.snapshot"), tmp.path("state") + "/state.snapshot"})
    journal::write_snapshot_file(path, StatePersistence::kSnapshotMagic, 1,
                                 v1.bytes(), /*do_fsync=*/false);

  auto restored = f.make_server();
  ASSERT_TRUE(restored->restore_snapshot(tmp.path("v1.snapshot")));
  auto recovered = f.make_server(f.config_with(tmp.path("state")));
  EXPECT_TRUE(recovered->recovered());
  EXPECT_EQ(recovered->metrics_snapshot().counter("persist.corrupt"), 0u);
  const roadnet::BusRoute& route = f.city.route_a();
  for (const auto edge : route.edges()) {
    const auto want = warm->predictor().predict_segment_time(
        edge, route.id(), at_day_time(3, hms(9)));
    EXPECT_EQ(restored->predictor().predict_segment_time(
                  edge, route.id(), at_day_time(3, hms(9))),
              want);
    EXPECT_EQ(recovered->predictor().predict_segment_time(
                  edge, route.id(), at_day_time(3, hms(9))),
              want);
  }
}

// -- two-phase (background) checkpointing ----------------------------------

TEST(StatePersistence, SealThenCommitDropsCoveredRecords) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
  persistence.stage(JournalRecord::recent_obs, obs_at(2, 0, hms(8), 61.0));

  // Phase 1 (control thread): rotate the journal aside.
  persistence.seal_journal();
  EXPECT_TRUE(std::filesystem::exists(persistence.sealed_journal_path()));
  EXPECT_EQ(persistence.journal_bytes(), 0u);  // fresh active journal
  // Appends continue into the fresh journal while the snapshot writes.
  persistence.stage(JournalRecord::recent_obs, obs_at(3, 0, hms(9), 62.0));
  persistence.flush();
  EXPECT_EQ(persistence.last_seq(), 3u);

  // Phase 2 (background thread): snapshot lands, sealed segment drops.
  BinWriter body;
  body.put_u64(2);  // watermark: covers the first two records
  persistence.commit_checkpoint(body.bytes(), hms(9));
  EXPECT_FALSE(std::filesystem::exists(persistence.sealed_journal_path()));

  StatePersistence fresh(config);
  const auto rec = fresh.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  ASSERT_EQ(rec.records.size(), 1u);  // only the post-seal append
  EXPECT_EQ(rec.records[0].seq, 3u);
  EXPECT_TRUE(rec.replay.clean());
}

TEST(StatePersistence, CrashBetweenSealAndCommitLosesNothing) {
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();
  {
    StatePersistence persistence(config);
    persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
    persistence.stage(JournalRecord::recent_obs, obs_at(2, 0, hms(8), 61.0));
    persistence.seal_journal();
    persistence.stage(JournalRecord::recent_obs, obs_at(3, 0, hms(9), 62.0));
    persistence.flush();
    // Crash here: the snapshot write never happened. Both the sealed
    // segment and the active journal survive on disk.
  }
  StatePersistence fresh(config);
  const auto rec = fresh.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  ASSERT_EQ(rec.records.size(), 3u);  // sealed replayed before active
  EXPECT_EQ(rec.records[0].seq, 1u);
  EXPECT_EQ(rec.records[1].seq, 2u);
  EXPECT_EQ(rec.records[2].seq, 3u);
  EXPECT_TRUE(rec.replay.clean());
}

TEST(StatePersistence, RepeatedSealConcatenatesLeftoverSegment) {
  // A crashed commit leaves a sealed file; the next seal must fold it
  // together with the newer journal instead of clobbering it.
  TempDir tmp("wiloc_persist_test");
  PersistenceConfig config;
  config.dir = tmp.path();

  StatePersistence persistence(config);
  persistence.stage(JournalRecord::recent_obs, obs_at(1, 0, hms(8), 60.0));
  persistence.seal_journal();           // sealed: [1]
  persistence.stage(JournalRecord::recent_obs, obs_at(2, 0, hms(9), 61.0));
  persistence.seal_journal();           // sealed: [1, 2]
  persistence.stage(JournalRecord::recent_obs, obs_at(3, 0, hms(9), 62.0));
  persistence.flush();

  StatePersistence fresh(config);
  const auto rec = fresh.recover();
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[0].seq, 1u);
  EXPECT_EQ(rec.records[1].seq, 2u);
  EXPECT_EQ(rec.records[2].seq, 3u);
  EXPECT_TRUE(rec.replay.clean());
}

TEST(ServerPersist, PreparedCheckpointMatchesSynchronous) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  const auto training = f.training_set(1);

  auto server = f.make_server(f.config_with(tmp.path()));
  // A background owner holds the checkpoint cadence (as the serving
  // layer does): inline checkpoints would race the prepared snapshot
  // and clobber the post-prepare journal.
  server->set_inline_checkpoints(false);
  for (const auto& o : training) server->load_history(o);

  // Prepare on the "control thread", then write more state into the
  // fresh journal before the commit lands — the ordering a background
  // checkpointer produces under load.
  auto prepared = server->prepare_checkpoint();
  ASSERT_TRUE(prepared.valid);
  const TravelObservation extra{f.city.route_a().edges()[0],
                                f.city.route_a().id(),
                                at_day_time(2, hms(9)), 55.0};
  server->load_history(extra);
  server->commit_prepared(std::move(prepared));
  // The extra history frame is staged; a tailing peer's read flushes it
  // into the fresh journal (and ships it) before the restart.
  const auto page = server->tail_journal(0, 1 << 20);
  EXPECT_EQ(page.records, 1u);
  EXPECT_EQ(page.last_seq, server->persistence()->last_seq());

  auto restarted = f.make_server(f.config_with(tmp.path()));
  EXPECT_TRUE(restarted->recovered());
  // Snapshot state and the post-prepare journal record both recovered.
  EXPECT_EQ(restarted->store().raw_history().size(),
            server->store().raw_history().size());
  restarted->finalize_history();
  server->finalize_history();
  for (const auto edge : f.city.route_a().edges())
    for (std::size_t slot = 0; slot < 5; ++slot)
      EXPECT_EQ(restarted->store().historical_mean(
                    edge, f.city.route_a().id(), slot),
                server->store().historical_mean(
                    edge, f.city.route_a().id(), slot));
}

TEST(ServerPersist, InlineCheckpointGateDefersToBackgroundOwner) {
  PersistServerFixture f;
  TempDir tmp("wiloc_persist_test");
  ServerConfig config = f.config_with(tmp.path());
  config.persist.journal_trigger_bytes = 64;  // every append is "due"
  config.persist.snapshot_interval_s = 1e9;

  auto server = f.make_server(config);
  server->set_inline_checkpoints(false);
  const std::uint64_t snapshots_before =
      server->metrics_snapshot().counter("persist.snapshots");
  for (int i = 0; i < 16; ++i)
    server->load_history({f.city.route_a().edges()[0],
                          f.city.route_a().id(),
                          at_day_time(1, hms(8)) + 30.0 * i, 50.0 + i});
  // The size trigger is long past due, but the control thread must not
  // checkpoint inline while a background owner holds the cadence.
  EXPECT_EQ(server->metrics_snapshot().counter("persist.snapshots"),
            snapshots_before);
  EXPECT_TRUE(server->checkpoint_due());

  auto prepared = server->prepare_checkpoint();
  ASSERT_TRUE(prepared.valid);
  server->commit_prepared(std::move(prepared));
  EXPECT_GT(server->metrics_snapshot().counter("persist.snapshots"),
            snapshots_before);
  EXPECT_FALSE(server->checkpoint_due());
}

}  // namespace
}  // namespace wiloc::core
