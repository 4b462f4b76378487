// Kill-one-node chaos over an in-process 3-node cluster behind a
// ClusterRouter: scans keep flowing while a node's HTTP front-end dies
// mid-load, the router detects the death within the probe window, and
// the acked-scan ledger reconciles — every scan the router acked is
// accounted for on the node it credited (zero acknowledged-and-lost
// scans). A second test runs a node behind a ChaosProxy to exercise the
// same retry ladder under link faults instead of clean death.
#include "cluster/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "cluster/replication.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"
#include "sim/bus_trip.hpp"
#include "sim/chaos_proxy.hpp"

namespace wiloc::cluster {
namespace {

using wiloc::testing::TempDir;

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

/// At-least-once client: retries a batch until some replica acks it.
/// Safe because node-side ingest dedups retransmissions; this is
/// exactly the phone-app contract the router documents.
net::ClientResponse post_until_acked(net::HttpClient& client,
                                     const std::string& target,
                                     const std::string& body) {
  net::ClientResponse last;
  for (int attempt = 0; attempt < 120; ++attempt) {
    try {
      last = client.post(target, body, "application/json",
                         /*idempotent=*/true);
      if (last.status == 200) return last;
    } catch (const Error&) {
      client.disconnect();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return last;
}

net::ClientResponse get_with_retry(net::HttpClient& client,
                                   const std::string& target) {
  net::ClientResponse last;
  for (int attempt = 0; attempt < 120; ++attempt) {
    try {
      last = client.get(target);
      if (last.status == 200) return last;
    } catch (const Error&) {
      client.disconnect();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return last;
}

/// One serving node: trained server + socketed service. Training runs
/// once on the first node; the rest restore its snapshot (identical
/// learned state, exactly like a fleet trained from the same archive).
struct Node {
  core::WiLocatorServer server;
  net::WiLocatorService service;

  Node(wiloc::testing::MiniCity& city, core::ServerConfig config)
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), config),
        service(server) {}
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

std::vector<sim::ScanReport> live_reports(wiloc::testing::MiniCity& city,
                                          sim::TrafficModel& traffic,
                                          std::uint32_t trip_id,
                                          double day_time, unsigned seed) {
  Rng rng(seed);
  const auto trip =
      sim::simulate_trip(TripId(trip_id), city.route_a(), city.profiles[0],
                         traffic, at_day_time(5, day_time), rng);
  const rf::Scanner scanner;
  return sim::sense_trip(trip, city.route_a(), city.aps, city.model, scanner,
                         rng);
}

std::string batch_body(const std::vector<sim::ScanReport>& reports,
                       std::size_t begin, std::size_t end) {
  std::vector<core::ScanSubmission> batch;
  for (std::size_t i = begin; i < std::min(end, reports.size()); ++i)
    batch.push_back({reports[i].trip, reports[i].scan});
  return net::encode_scan_batch(batch);
}

std::uint64_t scans_posted(core::WiLocatorServer& server) {
  return server.metrics_registry().counter("service.scans_posted").value();
}

TEST(ClusterFailover, RouterHandleIsThreadSafeWhileServing) {
  // ClusterRouter::handle() is called concurrently: half the client
  // threads go through the router's HTTP loop, the other half call
  // handle() in-process beside it, all registering trips, posting scans
  // and reading positions in parallel. The acked-scan ledger must still
  // reconcile and the placement cache must stay coherent.
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{41};
  TempDir tmp("wiloc_failover_test");

  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 2; ++i) {
    core::ServerConfig config;
    config.persist.dir = tmp.sub("n" + std::to_string(i));
    config.persist.snapshot_interval_s = 1e9;
    config.persist.journal_trigger_bytes = 1ull << 40;
    nodes.push_back(std::make_unique<Node>(city, config));
  }
  train(nodes[0]->server, city, traffic);
  const std::string snap = tmp.path() + "/trained.snapshot";
  nodes[0]->server.save_snapshot(snap);
  ASSERT_TRUE(nodes[1]->server.restore_snapshot(snap));

  std::vector<NodeInfo> infos;
  for (int i = 0; i < 2; ++i) {
    nodes[i]->service.start();
    nodes[i]->service.set_ready();
    infos.push_back({"n" + std::to_string(i), "127.0.0.1",
                     nodes[i]->service.port()});
  }

  RouterOptions ropts;
  ropts.probe_interval_s = 0.05;
  ClusterRouter router(infos, ropts);
  router.start();

  constexpr std::uint32_t kFirstTrip = 900;
  constexpr int kClientThreads = 4;
  constexpr int kTripsPerThread = 2;
  std::vector<std::vector<sim::ScanReport>> reports;
  for (int t = 0; t < kClientThreads * kTripsPerThread; ++t)
    reports.push_back(live_reports(city, traffic,
                                   kFirstTrip + static_cast<std::uint32_t>(t),
                                   hms(8) + 180.0 * t, 170 + t));

  std::atomic<std::uint64_t> scans_sent{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClientThreads; ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", router.port());
      // Returns the final status of an at-least-once call: retried
      // until some replica answers 200, as the phone app does.
      const auto call = [&](const std::string& target,
                            const std::string& body) {
        if (c % 2 == 0) {
          return body.empty() ? get_with_retry(client, target).status
                              : post_until_acked(client, target, body).status;
        }
        net::HttpRequest request;
        request.method = body.empty() ? "GET" : "POST";
        request.target = target;
        net::split_target(target, &request.path, &request.query);
        request.body = body;
        int status = 0;
        for (int attempt = 0; attempt < 120; ++attempt) {
          status = router.handle(request).status;
          if (status == 200) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        return status;
      };
      for (int k = 0; k < kTripsPerThread; ++k) {
        const int t = c * kTripsPerThread + k;
        const std::uint32_t id =
            kFirstTrip + static_cast<std::uint32_t>(t);
        if (call("/v1/trips", "{\"trip\":" + std::to_string(id) +
                                  ",\"route\":0}") != 200) {
          failures.fetch_add(1);
          continue;
        }
        constexpr std::size_t kBatch = 40;
        for (std::size_t i = 0; i < reports[t].size(); i += kBatch) {
          if (call("/v1/scans", batch_body(reports[t], i, i + kBatch)) !=
              200) {
            failures.fetch_add(1);
            break;
          }
          scans_sent.fetch_add(
              std::min(i + kBatch, reports[t].size()) - i);
        }
        if (call("/v1/position?trip=" + std::to_string(id), "") != 200)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Ledger reconciliation, same invariant as the chaos tests: no node
  // was credited an ack it never ingested, and everything sent landed.
  const auto acked = router.acked_scans_by_node();
  std::uint64_t total_acked = 0;
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_LE(acked[i], scans_posted(nodes[i]->server)) << "node " << i;
    total_acked += acked[i];
  }
  EXPECT_GE(total_acked, scans_sent.load());

  router.stop();
  for (auto& node : nodes) node->service.stop();
}

TEST(ClusterFailover, KillOneNodeMidLoadLosesNoAckedScans) {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  TempDir tmp("wiloc_failover_test");

  // Three persisted nodes in a full replication mesh, fronted by one
  // router with fast probes — the whole tentpole topology in-process.
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    core::ServerConfig config;
    config.persist.dir = tmp.sub("n" + std::to_string(i));
    config.persist.snapshot_interval_s = 1e9;
    config.persist.journal_trigger_bytes = 1ull << 40;
    nodes.push_back(std::make_unique<Node>(city, config));
  }
  train(nodes[0]->server, city, traffic);
  const std::string snap = tmp.path() + "/trained.snapshot";
  nodes[0]->server.save_snapshot(snap);
  ASSERT_TRUE(nodes[1]->server.restore_snapshot(snap));
  ASSERT_TRUE(nodes[2]->server.restore_snapshot(snap));

  std::vector<NodeInfo> infos;
  for (int i = 0; i < 3; ++i) {
    nodes[i]->service.start();
    nodes[i]->service.set_ready();
    infos.push_back({"n" + std::to_string(i), "127.0.0.1",
                     nodes[i]->service.port()});
  }

  std::vector<std::unique_ptr<ReplicationTailer>> tailers;
  for (int i = 0; i < 3; ++i) {
    std::vector<NodeInfo> peers;
    for (int j = 0; j < 3; ++j)
      if (j != i) peers.push_back(infos[j]);
    ReplicationOptions repl;
    repl.poll_interval_s = 0.01;
    tailers.push_back(std::make_unique<ReplicationTailer>(
        nodes[i]->service, peers, repl,
        &nodes[i]->server.metrics_registry()));
    tailers.back()->start();
  }

  RouterOptions ropts;
  ropts.probe_interval_s = 0.05;
  ropts.probe_failures = 2;
  ClusterRouter router(infos, ropts);
  router.start();
  net::HttpClient client("127.0.0.1", router.port());

  // 12 live trips on route A; every node owns some of them.
  constexpr std::uint32_t kFirstTrip = 600;
  constexpr int kTrips = 12;
  std::vector<std::vector<sim::ScanReport>> reports;
  for (int t = 0; t < kTrips; ++t) {
    const std::uint32_t id = kFirstTrip + static_cast<std::uint32_t>(t);
    reports.push_back(
        live_reports(city, traffic, id, hms(8) + 120.0 * t, 77 + t));
    ASSERT_FALSE(reports.back().empty());
    const auto reg = post_until_acked(
        client, "/v1/trips",
        "{\"trip\":" + std::to_string(id) + ",\"route\":0}");
    ASSERT_EQ(reg.status, 200) << reg.body;
  }
  {
    bool all_owned_by_one = true;
    const std::size_t first = router.ring().owner(kFirstTrip);
    for (int t = 1; t < kTrips; ++t)
      if (router.ring().owner(kFirstTrip + t) != first)
        all_owned_by_one = false;
    ASSERT_FALSE(all_owned_by_one) << "degenerate placement";
  }

  // First half of every trip through the healthy cluster.
  std::uint64_t scans_sent = 0;
  constexpr std::size_t kBatch = 50;
  for (int t = 0; t < kTrips; ++t) {
    const std::size_t half = reports[t].size() / 2;
    for (std::size_t i = 0; i < half; i += kBatch) {
      const auto resp = post_until_acked(
          client, "/v1/scans",
          batch_body(reports[t], i, std::min(i + kBatch, half)));
      ASSERT_EQ(resp.status, 200) << resp.body;
      scans_sent += std::min(i + kBatch, half) - i;
    }
  }

  // Kill the node owning the first trip — its trips must fail over.
  const std::size_t victim = router.ring().owner(kFirstTrip);
  nodes[victim]->service.abort_http();

  // Second half lands despite the dead node; at-least-once retries plus
  // in-request re-splitting keep every batch ackable.
  for (int t = 0; t < kTrips; ++t) {
    const std::size_t half = reports[t].size() / 2;
    for (std::size_t i = half; i < reports[t].size(); i += kBatch) {
      const auto resp = post_until_acked(
          client, "/v1/scans", batch_body(reports[t], i, i + kBatch));
      ASSERT_EQ(resp.status, 200)
          << "trip " << (kFirstTrip + t) << ": " << resp.body;
      scans_sent += std::min(i + kBatch, reports[t].size()) - i;
    }
  }

  // Probes (or the failed proxies themselves) must have marked the
  // victim down well within a few probe intervals.
  EXPECT_TRUE(wait_until(
      [&] { return router.membership().healthy_count() == 2; }, 5.0));
  EXPECT_FALSE(router.membership().healthy(victim));
  auto& reg = router.metrics_registry();
  // The gauge is refreshed by the probe thread, a beat behind
  // membership itself.
  EXPECT_TRUE(wait_until(
      [&] { return reg.gauge("router.healthy_nodes").value() == 2.0; }, 5.0));
  EXPECT_GT(reg.counter("router.upstream_errors").value(), 0u);
  // The victim's trips were lazily re-registered on their failover
  // replica before scans were forwarded there.
  EXPECT_GT(reg.counter("router.reregistrations").value(), 0u);

  // Ledger reconciliation — the zero-acked-scan-loss invariant: every
  // scan the router acked is attributed to a node whose own ingest
  // counter covers it (the victim's pre-death acks included: its
  // process state survives abort_http, only its HTTP listener died).
  const auto acked = router.acked_scans_by_node();
  ASSERT_EQ(acked.size(), 3u);
  std::uint64_t total_acked = 0;
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_LE(acked[i], scans_posted(nodes[i]->server))
        << "node " << i << " acked more scans than it ever ingested";
    total_acked += acked[i];
  }
  // Every scan we sent was acked somewhere (dedup means a node-side
  // post may exceed its ack credit, never the reverse).
  EXPECT_GE(total_acked, scans_sent);

  // Failed-over trips still answer reads through the router.
  for (int t = 0; t < kTrips; ++t) {
    const std::uint32_t id = kFirstTrip + static_cast<std::uint32_t>(t);
    const auto pos =
        get_with_retry(client, "/v1/position?trip=" + std::to_string(id));
    EXPECT_EQ(pos.status, 200) << "trip " << id << ": " << pos.body;
  }
  const auto route_arrival = get_with_retry(
      client, "/v1/arrival?route=0&stop=3&now=" +
                  std::to_string(reports.back().back().scan.time));
  EXPECT_EQ(route_arrival.status, 200) << route_arrival.body;

  router.stop();
  for (auto& tailer : tailers) tailer->stop();
  for (auto& node : nodes) node->service.stop();
}

TEST(ClusterFailover, ChaoticLinkToOneNodeStillAcksEverything) {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  TempDir tmp("wiloc_failover_test");

  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 2; ++i) {
    core::ServerConfig config;
    config.persist.dir = tmp.sub("n" + std::to_string(i));
    config.persist.snapshot_interval_s = 1e9;
    config.persist.journal_trigger_bytes = 1ull << 40;
    nodes.push_back(std::make_unique<Node>(city, config));
  }
  train(nodes[0]->server, city, traffic);
  const std::string snap = tmp.path() + "/trained.snapshot";
  nodes[0]->server.save_snapshot(snap);
  ASSERT_TRUE(nodes[1]->server.restore_snapshot(snap));
  for (auto& node : nodes) {
    node->service.start();
    node->service.set_ready();
  }

  // Node 1 sits behind a fault-injecting proxy: refused connects,
  // split/delayed writes, corrupted and truncated responses.
  sim::ChaosProfile profile = sim::ChaosProfile::uniform(0.06);
  profile.delay_ms_max = 5;
  sim::ChaosProxy proxy(nodes[1]->service.port(), profile, /*seed=*/9);
  proxy.start();

  const std::vector<NodeInfo> infos{
      {"n0", "127.0.0.1", nodes[0]->service.port()},
      {"n1", "127.0.0.1", proxy.port()}};
  RouterOptions ropts;
  ropts.probe_interval_s = 0.05;
  // Generous threshold: injected faults must degrade, not evict.
  ropts.probe_failures = 64;
  ropts.client.connect_timeout_s = 1.0;
  ropts.client.read_timeout_s = 1.0;
  ropts.client.write_timeout_s = 1.0;
  ClusterRouter router(infos, ropts);
  router.start();
  net::HttpClient client("127.0.0.1", router.port());

  constexpr std::uint32_t kFirstTrip = 700;
  constexpr int kTrips = 6;
  std::uint64_t scans_sent = 0;
  for (int t = 0; t < kTrips; ++t) {
    const std::uint32_t id = kFirstTrip + static_cast<std::uint32_t>(t);
    const auto reports =
        live_reports(city, traffic, id, hms(9) + 180.0 * t, 170 + t);
    ASSERT_FALSE(reports.empty());
    const auto reg = post_until_acked(
        client, "/v1/trips",
        "{\"trip\":" + std::to_string(id) + ",\"route\":0}");
    ASSERT_EQ(reg.status, 200) << reg.body;
    for (std::size_t i = 0; i < reports.size(); i += 60) {
      const auto resp = post_until_acked(client, "/v1/scans",
                                         batch_body(reports, i, i + 60));
      ASSERT_EQ(resp.status, 200) << resp.body;
      scans_sent += std::min(i + 60, reports.size()) - i;
    }
  }

  // The proxy really did interfere, and the ledger still reconciles.
  const auto chaos = proxy.counters();
  EXPECT_GT(chaos.faulted_connections() + chaos.delayed_chunks +
                chaos.split_chunks + chaos.corrupted_chunks,
            0u);
  const auto acked = router.acked_scans_by_node();
  ASSERT_EQ(acked.size(), 2u);
  std::uint64_t total_acked = 0;
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_LE(acked[i], scans_posted(nodes[i]->server)) << "node " << i;
    total_acked += acked[i];
  }
  EXPECT_GE(total_acked, scans_sent);

  router.stop();
  proxy.stop();
  for (auto& node : nodes) node->service.stop();
}

}  // namespace
}  // namespace wiloc::cluster
