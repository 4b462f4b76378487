// Cluster end-to-end with real processes: three wilocator_serve nodes
// tailing each other's journals, fronted by the real wilocator_router
// binary. Mid-load the test kill -9s the node that owns the subject
// trips; the router must keep acking scans from the surviving replicas
// and answering reads for the failed-over trips. The victim is then
// restarted on the same port and directory — it must recover its
// journal, rejoin the ring within the probe window, and report its
// replication tail healthy. WILOC_SERVE_BIN / WILOC_ROUTER_BIN are
// injected by CMake.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "../json_tree.hpp"
#include "cluster/membership.hpp"
#include "cluster/ring.hpp"
#include "common.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"

namespace wiloc::cluster {
namespace {

using wiloc::testing::TempDir;

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

/// A spawned cluster binary (serve node or router) with stdout piped
/// back so the test can parse "LISTENING <port>".
class Proc {
 public:
  Proc(const char* bin, std::vector<std::string> args) {
    int fds[2];
    if (::pipe(fds) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return;
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      ADD_FAILURE() << "fork() failed";
      return;
    }
    if (pid_ == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      std::vector<char*> argv;
      std::string path = bin;
      argv.push_back(path.data());
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::perror("execv cluster binary");
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
  }

  ~Proc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) ::fclose(out_);
  }

  /// Blocks until the binary prints "LISTENING <port>". 0 on EOF.
  std::uint16_t wait_for_port() {
    char line[256];
    while (out_ != nullptr && std::fgets(line, sizeof(line), out_)) {
      unsigned port = 0;
      if (std::sscanf(line, "LISTENING %u", &port) == 1)
        return static_cast<std::uint16_t>(port);
    }
    return 0;
  }

  void kill9() {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
};

std::string spec_of(const std::vector<NodeInfo>& nodes) {
  std::string spec;
  for (const NodeInfo& node : nodes) {
    if (!spec.empty()) spec += ',';
    spec += node.id + "=" + node.host + ":" + std::to_string(node.port);
  }
  return spec;
}

net::ClientResponse post_until_acked(net::HttpClient& client,
                                     const std::string& target,
                                     const std::string& body) {
  net::ClientResponse last;
  for (int attempt = 0; attempt < 200; ++attempt) {
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

/// Reads one router metric; transport failures count as "not there
/// yet" so callers can poll through router restarts.
double gauge_of(net::HttpClient& client, const std::string& name) {
  try {
    const auto metrics = client.get("/metrics");
    if (metrics.status != 200) return -1.0;
    const auto doc = net::parse_json(metrics.body);
    if (!doc.has_value()) return -1.0;
    const net::JsonValue* gauges = doc->get("gauges");
    if (gauges == nullptr) return -1.0;
    return gauges->get_number(name).value_or(-1.0);
  } catch (const Error&) {
    client.disconnect();
    return -1.0;
  }
}

std::uint64_t counter_of(net::HttpClient& client, const std::string& name) {
  try {
    const auto metrics = client.get("/metrics");
    if (metrics.status != 200) return 0;
    const auto doc = net::parse_json(metrics.body);
    if (!doc.has_value()) return 0;
    const net::JsonValue* counters = doc->get("counters");
    if (counters == nullptr) return 0;
    return static_cast<std::uint64_t>(
        counters->get_number(name).value_or(0.0));
  } catch (const Error&) {
    client.disconnect();
    return 0;
  }
}

std::string scan_batch(const bench::LiveTrip& trip, std::size_t begin,
                       std::size_t end) {
  std::vector<core::ScanSubmission> batch;
  for (std::size_t i = begin; i < std::min(end, trip.reports.size()); ++i)
    batch.push_back({trip.reports[i].trip, trip.reports[i].scan});
  return net::encode_scan_batch(batch);
}

std::string register_body(const bench::LiveTrip& trip) {
  return "{\"trip\":" + std::to_string(trip.record.id.value()) +
         ",\"route\":" + std::to_string(trip.record.route.value()) + "}";
}

TEST(ClusterE2E, KillMinusNineOwnerFailsOverThenRecoversAndRejoins) {
  // The same deterministic world every wilocator_serve builds.
  const sim::City city = sim::build_paper_city();
  const sim::TrafficModel traffic(2016);
  const sim::FleetPlan plan = sim::default_fleet_plan(city);
  Rng rng(99);
  const auto day = bench::simulate_live_day(city, traffic, plan, /*day=*/1,
                                            /*first_trip_id=*/7000, rng);
  std::vector<const bench::LiveTrip*> trips;
  for (const auto& t : day)
    if (t.reports.size() >= 20 && trips.size() < 6) trips.push_back(&t);
  ASSERT_GE(trips.size(), 3u);

  // Three persisted nodes. Ports are ephemeral, so peer lists can only
  // name already-started nodes: n1 tails n0, n2 tails n0 and n1. (The
  // restarted victim later gets the full peer list.) Snapshot interval
  // is pushed out so live recents stay in the tailable journal.
  TempDir tmp("wiloc_cluster_e2e");
  std::vector<std::unique_ptr<Proc>> nodes;
  std::vector<NodeInfo> infos;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> args = {
        "--history-days", "1",
        "--workers", "1",
        "--persist-dir", tmp.sub("n" + std::to_string(i)),
        "--node-id", "n" + std::to_string(i),
        "--snapshot-interval", "100000",
        "--replication-poll", "0.02"};
    if (!infos.empty()) {
      args.push_back("--peers");
      args.push_back(spec_of(infos));
    }
    nodes.push_back(std::make_unique<Proc>(WILOC_SERVE_BIN, args));
    const std::uint16_t port = nodes.back()->wait_for_port();
    ASSERT_NE(port, 0) << "node " << i << " never reached LISTENING";
    infos.push_back({"n" + std::to_string(i), "127.0.0.1", port});
  }

  Proc router(WILOC_ROUTER_BIN,
              {"--nodes", spec_of(infos), "--probe-interval", "0.05",
               "--probe-failures", "2", "--upstream-timeout", "1"});
  const std::uint16_t router_port = router.wait_for_port();
  ASSERT_NE(router_port, 0) << "router never reached LISTENING";

  net::HttpClient client("127.0.0.1", router_port);
  EXPECT_EQ(get_with_retry(client, "/healthz").status, 200);
  ASSERT_EQ(gauge_of(client, "router.healthy_nodes"), 3.0);

  // Register the trips and stream the first half of each through the
  // healthy cluster.
  constexpr std::size_t kBatch = 40;
  for (const bench::LiveTrip* trip : trips) {
    const auto reg = post_until_acked(client, "/v1/trips",
                                      register_body(*trip));
    ASSERT_EQ(reg.status, 200) << reg.body;
  }
  for (const bench::LiveTrip* trip : trips) {
    const std::size_t half = trip->reports.size() / 2;
    for (std::size_t i = 0; i < half; i += kBatch) {
      const auto resp =
          post_until_acked(client, "/v1/scans",
                           scan_batch(*trip, i, std::min(i + kBatch, half)));
      ASSERT_EQ(resp.status, 200) << resp.body;
    }
  }

  // Kill -9 the owner of the first subject trip (the ring is the same
  // deterministic rendezvous hash the router runs).
  const HashRing ring(infos.size());
  const std::size_t victim = ring.owner(trips[0]->record.id.value());
  const std::uint16_t victim_port = infos[victim].port;
  nodes[victim]->kill9();

  // The second half keeps landing: at-least-once retries ride through
  // the probe window, then the ladder serves from the next replica.
  for (const bench::LiveTrip* trip : trips) {
    const std::size_t half = trip->reports.size() / 2;
    for (std::size_t i = half; i < trip->reports.size(); i += kBatch) {
      const auto resp = post_until_acked(client, "/v1/scans",
                                         scan_batch(*trip, i, i + kBatch));
      ASSERT_EQ(resp.status, 200)
          << "trip " << trip->record.id.value() << ": " << resp.body;
    }
  }

  // The router noticed the death and failed the victim's trips over.
  ASSERT_TRUE(wait_until(
      [&] { return gauge_of(client, "router.healthy_nodes") == 2.0; }, 10.0))
      << "router never marked the killed node down";
  EXPECT_GT(counter_of(client, "router.upstream_errors"), 0u);
  EXPECT_GT(counter_of(client, "router.reregistrations"), 0u);

  // Reads for every trip — including the victim's — answer through the
  // router from whichever replica holds them now.
  for (const bench::LiveTrip* trip : trips) {
    const auto pos = get_with_retry(
        client,
        "/v1/position?trip=" + std::to_string(trip->record.id.value()));
    EXPECT_EQ(pos.status, 200)
        << "trip " << trip->record.id.value() << ": " << pos.body;
  }

  // Restart the victim on its old port and directory with the full
  // peer list: recovery replays the journal instead of retraining, and
  // the tailer pulls what the survivors learned while it was dead.
  std::vector<NodeInfo> others;
  for (std::size_t i = 0; i < infos.size(); ++i)
    if (i != victim) others.push_back(infos[i]);
  nodes[victim] = std::make_unique<Proc>(
      WILOC_SERVE_BIN,
      std::vector<std::string>{
          "--no-train",
          "--workers", "1",
          "--port", std::to_string(victim_port),
          "--persist-dir", tmp.sub("n" + std::to_string(victim)),
          "--node-id", infos[victim].id,
          "--snapshot-interval", "100000",
          "--replication-poll", "0.02",
          "--peers", spec_of(others)});
  ASSERT_EQ(nodes[victim]->wait_for_port(), victim_port)
      << "victim did not come back on its old port";

  net::HttpClient direct("127.0.0.1", victim_port);
  const auto readyz = get_with_retry(direct, "/readyz");
  ASSERT_EQ(readyz.status, 200) << readyz.body;
  EXPECT_NE(readyz.body.find("\"recovered\":true"), std::string::npos)
      << readyz.body;
  // Its replication tail reaches both survivors.
  EXPECT_TRUE(wait_until([&] {
    try {
      const auto r = direct.get("/readyz");
      return r.body.find("\"replication\":[") != std::string::npos &&
             r.body.find("\"reachable\":true") != std::string::npos &&
             r.body.find("\"reachable\":false") == std::string::npos;
    } catch (const Error&) {
      direct.disconnect();
      return false;
    }
  }, 10.0)) << "restarted node never caught its replication tail up";

  // The router's probes bring the recovered node back into rotation.
  ASSERT_TRUE(wait_until(
      [&] { return gauge_of(client, "router.healthy_nodes") == 3.0; }, 10.0))
      << "router never re-admitted the restarted node";

  // A fresh trip owned by the recovered node goes through the router
  // end to end — registration, scans, and a position read all land on
  // the node that was dead a moment ago.
  const bench::LiveTrip* fresh = nullptr;
  for (const auto& t : day) {
    if (t.reports.size() < 20) continue;
    bool used = false;
    for (const bench::LiveTrip* s : trips)
      if (s->record.id == t.record.id) used = true;
    if (!used && ring.owner(t.record.id.value()) == victim) {
      fresh = &t;
      break;
    }
  }
  if (fresh != nullptr) {
    const auto reg = post_until_acked(client, "/v1/trips",
                                      register_body(*fresh));
    ASSERT_EQ(reg.status, 200) << reg.body;
    const auto resp = post_until_acked(
        client, "/v1/scans", scan_batch(*fresh, 0, fresh->reports.size()));
    ASSERT_EQ(resp.status, 200) << resp.body;
    const auto pos = get_with_retry(
        client,
        "/v1/position?trip=" + std::to_string(fresh->record.id.value()));
    EXPECT_EQ(pos.status, 200) << pos.body;
  }
}

}  // namespace
}  // namespace wiloc::cluster
