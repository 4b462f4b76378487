// Journal-tailing replication between two in-process nodes: a tailer
// pulls node A's live recents into node B, applies them idempotently
// (a second tailer re-tailing from zero only produces duplicates),
// records compaction gaps, keeps going across mid-stream checkpoints,
// and reports an unreachable peer through /readyz. A peer fed the shared
// chaos schedule through tailed pages ends byte-identical to the serial
// run, and mutated pages never throw or plant a foreign record.
#include "cluster/replication.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "../chaos_schedule.hpp"
#include "../helpers.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"
#include "sim/bus_trip.hpp"

namespace wiloc::cluster {
namespace {

using roadnet::TripId;

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One node over a shared MiniCity. Training runs the same loop on
/// every node (as wilocator_serve does), so only live recents differ.
struct Node {
  core::WiLocatorServer server;

  Node(wiloc::testing::MiniCity& city, core::ServerConfig config)
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), config) {}
};

void train(core::WiLocatorServer& server, wiloc::testing::MiniCity& city,
           sim::TrafficModel& traffic, int days = 2) {
  Rng rng(55);
  std::uint32_t trip_id = 1000;
  for (int day = 0; day < days; ++day)
    for (std::size_t r = 0; r < city.routes.size(); ++r)
      for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
        const auto trip =
            sim::simulate_trip(TripId(trip_id++), city.routes[r],
                               city.profiles[r], traffic,
                               at_day_time(day, tod), rng);
        for (const auto& seg : trip.segments) {
          if (seg.travel_time() <= 0.0) continue;
          server.load_history({city.routes[r].edges()[seg.edge_index],
                               city.routes[r].id(), seg.exit,
                               seg.travel_time()});
        }
      }
  server.finalize_history();
}

/// Registers a trip on the service and posts one simulated live run of
/// route A through it, then drains so every completed traversal is
/// journaled.
void post_live_trip(net::WiLocatorService& service,
                    core::WiLocatorServer& server,
                    wiloc::testing::MiniCity& city,
                    sim::TrafficModel& traffic, std::uint32_t trip_id,
                    unsigned seed) {
  ASSERT_EQ(service
                .handle({.method = "POST",
                         .path = "/v1/trips",
                         .body = "{\"trip\":" + std::to_string(trip_id) +
                                 ",\"route\":0}"})
                .status,
            200);
  Rng rng(seed);
  const auto trip =
      sim::simulate_trip(TripId(trip_id), city.route_a(), city.profiles[0],
                         traffic, at_day_time(5, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, city.route_a(), city.aps,
                                       city.model, scanner, rng);
  ASSERT_FALSE(reports.empty());
  for (std::size_t i = 0; i < reports.size(); i += 50) {
    std::vector<core::ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, reports.size()); ++j)
      batch.push_back({reports[j].trip, reports[j].scan});
    const auto resp = service.handle({.method = "POST",
                                      .path = "/v1/scans",
                                      .body = net::encode_scan_batch(batch)});
    ASSERT_EQ(resp.status, 200) << resp.body;
  }
  server.drain();
}

TEST(Replication, TailsApplyIdempotentlyAcrossGapsAndPeerDeath) {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  wiloc::testing::TempDir dir_a("wiloc_repl_test");

  // Node A persists (so it is tailable); intervals are pushed out so the
  // only compactions are the ones this test forces explicitly.
  core::ServerConfig config_a;
  config_a.persist.dir = dir_a.path();
  config_a.persist.snapshot_interval_s = 1e9;
  config_a.persist.journal_trigger_bytes = 1ull << 40;
  Node a(city, config_a);
  train(a.server, city, traffic);

  Node b(city, {});  // same training => replicated recents are the delta
  train(b.server, city, traffic);

  net::WiLocatorService service_a(a.server);
  service_a.start();
  service_a.set_ready();
  net::WiLocatorService service_b(b.server);  // no socket needed on B
  service_b.set_ready();

  // finalize_history checkpointed: A's training history is compacted
  // into the snapshot, so a tailer can only ever see live recents.
  ASSERT_NE(a.server.persistence(), nullptr);
  const std::uint64_t compacted0 = a.server.persistence()->compacted_through();
  ASSERT_GT(compacted0, 0u);
  ASSERT_EQ(a.server.persistence()->last_seq(), compacted0);

  post_live_trip(service_a, a.server, city, traffic, 500, 77);
  const std::uint64_t live1 = a.server.persistence()->last_seq() - compacted0;
  ASSERT_GT(live1, 0u);
  // Work budget (servebench core.journal_bytes_per_scan): nothing has
  // compacted since finalize, so the journal holds exactly what this
  // trip's ingest wrote. Pinned at its seeded value, 123 bytes for 36
  // accepted scans; a change that journals more per scan fails here.
  const double bytes =
      static_cast<double>(a.server.persistence()->journal_bytes());
  const double accepted = static_cast<double>(
      a.server.metrics_snapshot().counter("ingest.accepted"));
  EXPECT_LE(bytes / accepted, 123.0 / 36.0);

  const std::vector<NodeInfo> peers{
      {"a", "127.0.0.1", service_a.port()}};
  ReplicationOptions repl;
  repl.poll_interval_s = 0.01;

  auto& applied_b = b.server.metrics_registry().counter(
      "server.replicated_applied");
  auto& dups_b = b.server.metrics_registry().counter(
      "server.replicated_duplicates");

  // -- phase 1: fresh tailer converges on A's live recents --------------
  ReplicationTailer tailer1(service_b, peers, repl,
                            &b.server.metrics_registry());
  tailer1.start();
  ASSERT_TRUE(wait_until([&] {
    return tailer1.caught_up() && tailer1.records_applied() >= live1;
  })) << "tailer never caught up; applied=" << tailer1.records_applied();
  EXPECT_EQ(tailer1.records_applied(), live1);
  EXPECT_EQ(applied_b.value(), live1);
  EXPECT_EQ(dups_b.value(), 0u);
  // Watermark 0 against an already-compacted peer is itself a gap: the
  // tailer resumed from the compaction point instead of waiting forever.
  EXPECT_GE(tailer1.gaps(), 1u);

  auto lag = tailer1.lag();
  ASSERT_EQ(lag.size(), 1u);
  EXPECT_EQ(lag[0].peer, "a");
  EXPECT_TRUE(lag[0].reachable);
  EXPECT_EQ(lag[0].records_behind, 0u);

  // -- phase 2: a second tailer re-tails from zero => duplicates only ---
  ReplicationTailer tailer2(service_b, peers, repl,
                            &b.server.metrics_registry());
  tailer2.start();
  ASSERT_TRUE(wait_until([&] {
    return tailer2.caught_up() && dups_b.value() >= live1;
  })) << "re-tail never drained; dups=" << dups_b.value();
  EXPECT_EQ(tailer2.records_applied(), 0u);  // nothing was new
  EXPECT_EQ(applied_b.value(), live1);       // store state unchanged
  EXPECT_EQ(dups_b.value(), live1);

  // -- phase 3: A compacts mid-stream, then learns more ----------------
  service_a.checkpoint();
  ASSERT_EQ(a.server.persistence()->compacted_through(),
            compacted0 + live1);
  post_live_trip(service_a, a.server, city, traffic, 501, 99);
  const std::uint64_t live2 =
      a.server.persistence()->last_seq() - compacted0 - live1;
  ASSERT_GT(live2, 0u);

  // Both tailers sit exactly at the compaction point, so neither sees a
  // new gap; between them every new record is applied once and duplicated
  // once (which tailer wins the race is irrelevant).
  ASSERT_TRUE(wait_until([&] {
    return applied_b.value() >= live1 + live2 &&
           dups_b.value() >= live1 + live2;
  })) << "applied=" << applied_b.value() << " dups=" << dups_b.value();
  EXPECT_EQ(applied_b.value(), live1 + live2);
  EXPECT_EQ(dups_b.value(), live1 + live2);
  EXPECT_TRUE(wait_until([&] { return tailer1.caught_up(); }));

  // /readyz on B carries the per-peer lag block (tailer2 wired it last).
  const auto ready = service_b.handle({.method = "GET", .path = "/readyz"});
  EXPECT_EQ(ready.status, 200) << ready.body;
  EXPECT_NE(ready.body.find("\"replication\":["), std::string::npos)
      << ready.body;
  EXPECT_NE(ready.body.find("\"peer\":\"a\""), std::string::npos);
  EXPECT_NE(ready.body.find("\"reachable\":true"), std::string::npos);

  // -- phase 4: peer death is reported, not fatal ----------------------
  service_a.abort_http();
  ASSERT_TRUE(wait_until([&] {
    const auto l = tailer1.lag();
    return !l.empty() && !l[0].reachable;
  })) << "dead peer never reported unreachable";
  // /readyz reflects the *last wired* tailer (tailer2), whose probe runs
  // on its own cadence — poll until it too has noticed the death.
  EXPECT_TRUE(wait_until([&] {
    const auto down = service_b.handle({.method = "GET", .path = "/readyz"});
    return down.body.find("\"reachable\":false") != std::string::npos;
  })) << service_b.handle({.method = "GET", .path = "/readyz"}).body;

  tailer1.stop();
  tailer2.stop();
  service_a.stop();
  service_b.stop();
}

/// The origin of the schedule-driven arms: it persists (so it is
/// tailable) with its checkpoint triggers pushed out, so the only
/// compaction is the one finalize_history takes and a tailer never meets
/// a gap (gaps are TailsApplyIdempotentlyAcrossGapsAndPeerDeath's job).
std::unique_ptr<core::WiLocatorServer> make_origin(
    const wiloc::testing::ChaosSchedule& schedule, const std::string& dir) {
  core::ServerConfig config;
  config.persist.dir = dir;
  config.persist.snapshot_interval_s = 1e9;
  config.persist.journal_trigger_bytes = 1ull << 40;
  config.persist.fsync = journal::FsyncPolicy::never;  // test speed
  auto origin = schedule.make_server(config);
  schedule.train(*origin);
  return origin;
}

TEST(Replication, PeerEndsByteIdenticalToSerialOnChaosSchedule) {
  for (const std::uint64_t seed : wiloc::testing::kChaosSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const wiloc::testing::ChaosSchedule schedule(seed, 10000);
    const auto expected = wiloc::testing::store_bytes(
        *wiloc::testing::serial_reference(schedule));

    wiloc::testing::TempDir dir("wiloc_repl_test");
    auto origin = make_origin(schedule, dir.path());
    const std::uint64_t compacted =
        origin->persistence()->compacted_through();
    // Same training on the peer, so replicated recents are the delta.
    auto peer = schedule.make_server();
    schedule.train(*peer);
    net::WiLocatorService peer_service(*peer);

    // Tails page after page from `after` until caught up, as the
    // replication tailer does; returns the new watermark.
    std::uint64_t applied = 0;
    const auto tail_from = [&](std::uint64_t after) {
      for (;;) {
        const auto page = origin->tail_journal(after, schedule.page_bytes);
        if (page.records == 0) return after;
        const auto result = peer_service.apply_replication_frames(page.frames);
        EXPECT_EQ(result.records, page.records);
        EXPECT_EQ(result.last_seq, page.last_seq);
        applied += result.applied;
        after = page.last_seq;
        if (!page.truncated) return after;
      }
    };

    std::uint64_t watermark = compacted;
    const std::size_t overlap_round = schedule.rounds.size() / 2;
    for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
      wiloc::testing::apply_serial(*origin, schedule.rounds[r]);
      if (r != overlap_round) {
        watermark = tail_from(watermark);
        continue;
      }
      // One overlapping re-tail, from halfway back: the records already
      // held come back as duplicates, only this round's are applied.
      const std::uint64_t rewind = compacted + (watermark - compacted) / 2;
      const std::uint64_t applied_before = applied;
      const std::uint64_t head = tail_from(rewind);
      EXPECT_EQ(applied - applied_before, head - watermark);
      EXPECT_EQ(peer->metrics_snapshot().counter(
                    "server.replicated_duplicates"),
                watermark - rewind);
      watermark = head;
    }

    EXPECT_EQ(origin->persistence()->compacted_through(), compacted)
        << "an origin checkpoint fired during the run";
    EXPECT_EQ(watermark, origin->persistence()->last_seq());
    EXPECT_EQ(applied, watermark - compacted);
    EXPECT_TRUE(wiloc::testing::same_bytes(
        wiloc::testing::store_bytes(*origin), expected));
    EXPECT_TRUE(wiloc::testing::same_bytes(wiloc::testing::store_bytes(*peer),
                                           expected));
  }
}

TEST(Replication, MutatedPagesNeverThrowAndApplyOnlyOriginalRecords) {
  const wiloc::testing::ChaosSchedule schedule(2024, 1500);
  wiloc::testing::TempDir dir("wiloc_repl_test");
  auto origin = make_origin(schedule, dir.path());
  for (const auto& round : schedule.rounds)
    wiloc::testing::apply_serial(*origin, round);
  const auto page =
      origin->tail_journal(origin->persistence()->compacted_through(), 4096);
  ASSERT_GT(page.records, 8u);

  // Untrained, finalized peers: whatever their stores hold came in
  // through a page. The clean twin takes the original page once.
  const auto make_peer = [&] {
    auto peer = schedule.make_server();
    peer->finalize_history();
    return peer;
  };
  auto clean = make_peer();
  net::WiLocatorService clean_service(*clean);
  ASSERT_EQ(clean_service.apply_replication_frames(page.frames).applied,
            page.records);

  auto peer = make_peer();
  net::WiLocatorService service(*peer);
  Rng rng(8128);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto random_byte = [&] {
    return static_cast<std::byte>(rng.uniform_int(0, 255));
  };
  std::uint64_t applied = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> bytes = page.frames;
    for (std::size_t edits = 1 + below(3); edits > 0 && !bytes.empty();
         --edits) {
      const std::size_t at = below(bytes.size());
      const std::size_t run = 1 + below(8);
      switch (below(5)) {
        case 0:  // bit flip
          bytes[at] ^= static_cast<std::byte>(1u << below(8));
          break;
        case 1:  // overwrite a run
          for (std::size_t k = at; k < std::min(at + run, bytes.size()); ++k)
            bytes[k] = random_byte();
          break;
        case 2:  // truncate
          bytes.resize(at);
          break;
        case 3:  // insert random bytes
          for (std::size_t k = 0; k < run; ++k)
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         random_byte());
          break;
        case 4: {  // splice in a copy of a slice of the page
          const std::size_t from = below(page.frames.size());
          const std::size_t len =
              std::min(1 + below(64), page.frames.size() - from);
          const auto src = page.frames.begin() +
                           static_cast<std::ptrdiff_t>(from);
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), src,
                       src + static_cast<std::ptrdiff_t>(len));
          break;
        }
      }
    }
    ASSERT_NO_THROW(applied += service.apply_replication_frames(bytes).applied)
        << "mutant " << i;
  }
  EXPECT_GT(applied, 0u);  // mutants did reach the apply path

  // Nothing foreign got in: with the original page applied on top, the
  // fuzzed peer holds exactly what its clean twin holds.
  service.apply_replication_frames(page.frames);
  EXPECT_TRUE(wiloc::testing::same_bytes(
      wiloc::testing::store_bytes(*peer), wiloc::testing::store_bytes(*clean)));
}

}  // namespace
}  // namespace wiloc::cluster
