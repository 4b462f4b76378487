// End-to-end test of the wilocator_serve binary: spawn the real
// process, drive it over real sockets, kill -9 it mid-load, and verify
// the restarted process recovers its learned state — the deployment
// story the serving layer exists to provide.
//
// The server binary builds the deterministic paper city; the test
// rebuilds the same city in-process so trip routes and scan streams
// refer to the same world. WILOC_SERVE_BIN is injected by CMake.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "../json_tree.hpp"
#include "common.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"

namespace wiloc::net {
namespace {

using wiloc::testing::TempDir;

/// A spawned wilocator_serve process with its stdout piped back.
class ServeProcess {
 public:
  explicit ServeProcess(std::vector<std::string> args) {
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
      std::string bin = WILOC_SERVE_BIN;
      argv.push_back(bin.data());
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::perror("execv wilocator_serve");
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
  }

  ~ServeProcess() {
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

  int terminate() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
};

std::uint64_t counter_of(HttpClient& client, const std::string& name) {
  const auto metrics = client.get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  const auto doc = parse_json(metrics.body);
  EXPECT_TRUE(doc.has_value());
  const JsonValue* counters = doc->get("counters");
  if (counters == nullptr) return 0;
  return static_cast<std::uint64_t>(
      counters->get_number(name).value_or(0.0));
}

TEST(HttpE2E, ServeIngestPredictKillRecover) {
  // The same deterministic world the binary builds.
  const sim::City city = sim::build_paper_city();
  const sim::TrafficModel traffic(2016);
  const sim::FleetPlan plan = sim::default_fleet_plan(city);
  Rng rng(99);
  const auto day = bench::simulate_live_day(city, traffic, plan, /*day=*/1,
                                            /*first_trip_id=*/7000, rng);
  ASSERT_FALSE(day.empty());
  // The live trip: longest scan stream of the day.
  const bench::LiveTrip* live = &day.front();
  for (const auto& t : day)
    if (t.reports.size() > live->reports.size()) live = &t;
  ASSERT_GT(live->reports.size(), 20u);
  const auto& route = city.routes[live->record.route.index()];

  TempDir state("wiloc_http_e2e");
  ServeProcess first({"--history-days", "1", "--persist-dir", state.path(),
                      "--workers", "1", "--snapshot-interval", "120",
                      "--checkpoint-poll", "0.02"});
  const std::uint16_t port = first.wait_for_port();
  ASSERT_NE(port, 0) << "server never reached LISTENING";

  HttpClient client("127.0.0.1", port);
  EXPECT_EQ(client.get("/healthz").status, 200);
  EXPECT_EQ(client.get("/readyz").status, 200);

  // Register the trip and stream its scans.
  {
    std::string body = "{\"trip\":" +
                       std::to_string(live->record.id.value()) +
                       ",\"route\":" +
                       std::to_string(live->record.route.value()) + "}";
    ASSERT_EQ(client.post("/v1/trips", body).status, 200);
  }
  const std::uint64_t submitted_before =
      counter_of(client, "ingest.submitted");
  std::vector<core::ScanSubmission> batch;
  for (const auto& report : live->reports)
    batch.push_back({report.trip, report.scan});
  const auto ingest = client.post("/v1/scans", encode_scan_batch(batch));
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  EXPECT_EQ(parse_json(ingest.body)->get_number("submitted").value_or(0),
            static_cast<double>(batch.size()));

  // Metrics advance through the HTTP edge. ingest.submitted is bumped
  // by the engine worker as it dequeues, so poll rather than race it —
  // the POST only guarantees the batch was enqueued.
  const auto submit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter_of(client, "ingest.submitted") <
             submitted_before + batch.size() &&
         std::chrono::steady_clock::now() < submit_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(counter_of(client, "ingest.submitted"),
            submitted_before + batch.size());
  EXPECT_GE(counter_of(client, "service.scans_posted"), batch.size());

  // Arrival prediction at the final stop, queried from the end of the
  // stream, lands within tolerance of the simulator's ground truth.
  const std::size_t last_stop = route.stop_count() - 1;
  const double now = live->reports.back().scan.time;
  {
    std::string target = "/v1/arrival?trip=" +
                         std::to_string(live->record.id.value()) +
                         "&stop=" + std::to_string(last_stop) +
                         "&now=" + std::to_string(now);
    const auto arrival = client.get(target);
    ASSERT_EQ(arrival.status, 200) << arrival.body;
    const double predicted =
        parse_json(arrival.body)->get_number("arrival_time").value_or(0);
    const double truth = live->record.arrival_at_stop(last_stop);
    EXPECT_NEAR(predicted, truth, 300.0)
        << "prediction drifted far from ground truth";
  }

  // kill -9 mid-service: no drain, no final checkpoint. The state on
  // disk is whatever training checkpoints + the journal captured.
  first.kill9();

  // Restart on the same directory (no retraining): recovery must
  // replay and readiness must reflect it.
  ServeProcess second({"--no-train", "--persist-dir", state.path(),
                       "--workers", "1"});
  const std::uint16_t port2 = second.wait_for_port();
  ASSERT_NE(port2, 0) << "restarted server never reached LISTENING";
  HttpClient client2("127.0.0.1", port2);
  const auto readyz = client2.get("/readyz");
  ASSERT_EQ(readyz.status, 200);
  EXPECT_NE(readyz.body.find("\"recovered\":true"), std::string::npos);

  // The recovered seasonal history still powers predictions: a fresh
  // trip on the same route gets a sane arrival estimate.
  const bench::LiveTrip* other = nullptr;
  for (const auto& t : day)
    if (t.record.route == live->record.route &&
        t.record.id != live->record.id && t.reports.size() > 20)
      other = &t;
  ASSERT_NE(other, nullptr);
  {
    std::string body = "{\"trip\":" +
                       std::to_string(other->record.id.value()) +
                       ",\"route\":" +
                       std::to_string(other->record.route.value()) + "}";
    ASSERT_EQ(client2.post("/v1/trips", body).status, 200);
    const std::uint64_t processed_before =
        counter_of(client2, "ingest.submitted");
    std::vector<core::ScanSubmission> batch2;
    for (const auto& report : other->reports)
      batch2.push_back({report.trip, report.scan});
    ASSERT_EQ(client2.post("/v1/scans", encode_scan_batch(batch2)).status,
              200);
    // The POST only enqueues; the trip's position advances as the
    // worker processes the batch. Query once every scan is processed,
    // or a loaded machine answers from a stale mid-batch position.
    const auto processed_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (counter_of(client2, "ingest.submitted") <
               processed_before + batch2.size() &&
           std::chrono::steady_clock::now() < processed_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(counter_of(client2, "ingest.submitted"),
              processed_before + batch2.size());
    const double now2 = other->reports.back().scan.time;
    std::string target = "/v1/arrival?trip=" +
                         std::to_string(other->record.id.value()) +
                         "&stop=" + std::to_string(last_stop) +
                         "&now=" + std::to_string(now2);
    const auto arrival = client2.get(target);
    ASSERT_EQ(arrival.status, 200) << arrival.body;
    const double predicted =
        parse_json(arrival.body)->get_number("arrival_time").value_or(0);
    EXPECT_NEAR(predicted, other->record.arrival_at_stop(last_stop), 300.0);
  }

  // Graceful shutdown on SIGTERM.
  EXPECT_EQ(second.terminate(), 0);
}

}  // namespace
}  // namespace wiloc::net
