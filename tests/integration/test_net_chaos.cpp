// Chaos integration: a trained WiLocatorService behind a ChaosProxy,
// driven by the HttpLoadDriver at fault rates and overload levels past
// the DESIGN.md §12 acceptance bar. Every request must be answered or
// cleanly failed, the service must stay healthy throughout, and the
// driver's client-side ledger must reconcile with the server's http.*
// metrics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../helpers.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"
#include "sim/bus_trip.hpp"
#include "sim/chaos_proxy.hpp"

namespace wiloc::net {
namespace {

using roadnet::TripId;

struct ChaosFixture {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  core::WiLocatorServer server;

  ChaosFixture()
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), {}) {}

  void train(int days = 1) {
    Rng rng(55);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < days; ++day) {
      for (std::size_t r = 0; r < city.routes.size(); ++r) {
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r], traffic,
              at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            server.load_history({city.routes[r].edges()[seg.edge_index],
                                 city.routes[r].id(), seg.exit,
                                 seg.travel_time()});
          }
        }
      }
    }
    server.finalize_history();
  }

  /// A live stream of scan submissions for `trips` concurrent buses
  /// (distinct trip ids so the load driver can shard across
  /// connections), plus matching arrival probes.
  std::vector<core::ScanSubmission> live_stream(
      std::vector<ArrivalProbe>* probes, int trips = 6) {
    Rng rng(77);
    std::vector<core::ScanSubmission> stream;
    const rf::Scanner scanner;
    for (int t = 0; t < trips; ++t) {
      const TripId id(static_cast<std::uint32_t>(5 + t));
      const auto trip = sim::simulate_trip(
          id, city.route_a(), city.profiles[0], traffic,
          at_day_time(5, hms(9) + 120.0 * t), rng);
      const auto reports = sim::sense_trip(trip, city.route_a(), city.aps,
                                           city.model, scanner, rng);
      for (const auto& r : reports) stream.push_back({r.trip, r.scan});
      if (probes != nullptr && !reports.empty())
        probes->push_back({id, 3, reports.back().scan.time});
    }
    return stream;
  }
};

/// Driver-side counts must add up: every attempted request resolved to
/// exactly one of good / error.
void expect_fully_accounted(const LoadReport& report) {
  EXPECT_EQ(report.good_responses + report.errors,
            report.batches + report.arrival_queries);
}

// With a clean network and no client retries, the driver's view and the
// server's metrics describe the same events with the same numbers.
TEST(NetChaos, OverloadMetricsReconcileExactly) {
  ChaosFixture f;
  f.train();
  ServiceOptions options;
  // 8 µs sits below the real handlers' cost (16-scan batches and
  // arrival queries run ~20-30 µs server-side, more under sanitizers),
  // so admits trip the watermark; each shed feeds 0 into the EWMA, so
  // it always decays back under 8 µs and re-admits, whatever the shed
  // path costs. The EWMA must oscillate and both admitted and shed
  // requests occur.
  options.http.admission_latency_watermark_us = 8.0;
  WiLocatorService service(f.server, options);
  service.start();
  service.set_ready(true);

  HttpClient admin("127.0.0.1", service.port());
  ASSERT_EQ(admin.post("/v1/trips", R"({"trip":5,"route":0})").status, 200);

  std::vector<ArrivalProbe> probes;
  const auto stream = f.live_stream(&probes);
  ASSERT_FALSE(stream.empty());

  LoadDriverOptions lopts;
  lopts.port = service.port();
  lopts.connections = 4;
  lopts.batch_size = 16;
  lopts.arrival_every = 4;
  lopts.client.max_retries = 0;  // 1 request = 1 server-side event
  HttpLoadDriver driver(lopts);
  const LoadReport report = driver.run(stream, probes);

  expect_fully_accounted(report);
  EXPECT_GT(report.shed_503, 0u) << "overload drive never tripped shedding";
  EXPECT_GT(report.good_responses, 0u) << "shedding starved all traffic";

  const auto snap = f.server.metrics_snapshot();
  EXPECT_EQ(report.shed_503, snap.counter("http.shed"));
  EXPECT_EQ(report.rate_limited_429, snap.counter("http.rate_limited"));
  EXPECT_EQ(report.deadline_504, snap.counter("http.deadline_exceeded"));
  EXPECT_EQ(report.timeouts_408, snap.counter("http.timeouts_408"));
  EXPECT_EQ(report.transport_errors, 0u);
  service.stop();
}

// The acceptance drive: >= 20% connection-fault rate stacked on top of
// admission-watermark overload. No crash, no deadlock, and every
// request either answered or cleanly errored within its deadline.
TEST(NetChaos, FaultSweepUnderOverloadStaysHealthy) {
  ChaosFixture f;
  f.train();
  ServiceOptions options;
  options.http.admission_latency_watermark_us = 150.0;  // ~2x+ overload
  options.http.stall_timeout_s = 0.3;
  options.http.request_deadline_s = 1.0;
  WiLocatorService service(f.server, options);
  service.start();
  service.set_ready(true);

  sim::ChaosProfile profile;
  profile.refuse = 0.15;
  profile.truncate = 0.10;
  profile.kill_response = 0.10;  // >= 30% connection-level fault rate
  profile.split = 0.20;
  profile.corrupt = 0.05;
  profile.delay = 0.20;
  profile.delay_ms_max = 5.0;
  sim::ChaosProxy proxy(service.port(), profile, /*seed=*/7);
  proxy.start();

  HttpClient admin("127.0.0.1", service.port());
  ASSERT_EQ(admin.post("/v1/trips", R"({"trip":5,"route":0})").status, 200);

  std::vector<ArrivalProbe> probes;
  const auto stream = f.live_stream(&probes);

  LoadDriverOptions lopts;
  lopts.port = proxy.port();  // all load flows through the chaos plane
  lopts.connections = 6;
  lopts.batch_size = 16;
  lopts.arrival_every = 4;
  lopts.client.connect_timeout_s = 2.0;
  lopts.client.read_timeout_s = 2.0;
  lopts.client.write_timeout_s = 2.0;
  lopts.client.max_retries = 2;
  lopts.client.backoff_base_s = 0.005;
  HttpLoadDriver driver(lopts);
  const LoadReport report = driver.run(stream, probes);
  proxy.stop();

  // Every request resolved — answered or cleanly failed, none hung.
  expect_fully_accounted(report);
  EXPECT_GT(report.good_responses, 0u) << "chaos starved all goodput";
  const sim::ChaosCounters chaos = proxy.counters();
  EXPECT_GT(chaos.faulted_connections(), 0u)
      << "fault plan never fired — the sweep tested nothing: "
      << chaos.connections << " connections, " << report.batches
      << " batches, " << report.good_responses << " good, " << report.errors
      << " errors";
  // Some client-visible disturbance: an error that stuck, or a retry
  // that papered one over.
  EXPECT_GT(report.transport_errors + report.errors + report.retries, 0u);

  // The service itself never wobbled: health and readiness direct to
  // its own port, and a clean request still round-trips.
  EXPECT_EQ(admin.get("/healthz").status, 200);
  EXPECT_EQ(admin.get("/readyz").status, 200);
  const auto snap = f.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("http.responses_5xx") -
                snap.counter("http.shed") -
                snap.counter("http.deadline_exceeded"),
            0u)
      << "unexplained 5xx under chaos (handler exceptions?)";
  service.stop();
}

// Degraded reads end to end over sockets: in forced degraded mode the
// snapshot still answers rider polls, everything else sheds with 503 +
// Retry-After, and /readyz reports the mode.
TEST(NetChaos, DegradedReadsServeStaleTaggedAnswers) {
  ChaosFixture f;
  f.train();
  WiLocatorService service(f.server);
  service.start();
  service.set_ready(true);

  HttpClient client("127.0.0.1", service.port());
  ASSERT_EQ(client.post("/v1/trips", R"({"trip":5,"route":0})").status, 200);
  const auto stream = f.live_stream(nullptr);
  ASSERT_FALSE(stream.empty());
  for (std::size_t i = 0; i < stream.size(); i += 64) {
    std::vector<core::ScanSubmission> batch(
        stream.begin() + static_cast<std::ptrdiff_t>(i),
        stream.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + 64, stream.size())));
    ASSERT_EQ(client.post("/v1/scans", encode_scan_batch(batch)).status, 200);
  }
  const std::string pinned = "/v1/arrival?trip=5&stop=3&now=" +
                             std::to_string(stream.back().scan.time);
  ASSERT_EQ(client.get(pinned).status, 200);

  service.set_degraded(true);
  const auto hit = client.get("/v1/arrival?trip=5&stop=3");
  ASSERT_EQ(hit.status, 200) << hit.body;
  EXPECT_EQ(hit.headers.at("X-Cache"), "hit");

  // Readiness must disclose degraded mode while staying ready.
  const auto ready = client.get("/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_NE(ready.body.find("\"degraded\":true"), std::string::npos);

  // Queries the snapshot cannot answer shed, with Retry-After.
  for (const std::string& target :
       {pinned, std::string("/v1/traffic-map?now=123")}) {
    const auto shed = client.get(target);
    EXPECT_EQ(shed.status, 503) << target;
    EXPECT_EQ(shed.headers.at("Retry-After"), "1");
    EXPECT_NE(shed.body.find("\"reason\":\"forced_degraded\""),
              std::string::npos);
  }

  service.set_degraded(false);
  const auto recovered = client.get(pinned);
  EXPECT_EQ(recovered.status, 200);
  EXPECT_EQ(recovered.headers.count("X-Cache"), 0u);
  EXPECT_EQ(client.get("/readyz").body.find("\"degraded\":true"),
            std::string::npos);
  service.stop();
}

// Service-level half of the SIGPIPE satellite: a response torn by the
// proxy surfaces as wiloc::Error and the service keeps serving.
TEST(NetChaos, TornResponseLeavesServiceServing) {
  ChaosFixture f;
  f.train();
  WiLocatorService service(f.server);
  service.start();
  service.set_ready(true);

  sim::ChaosProfile profile;
  profile.kill_response = 1.0;
  sim::ChaosProxy proxy(service.port(), profile, /*seed=*/9);
  proxy.start();

  HttpClientOptions copts;
  copts.read_timeout_s = 2.0;
  HttpClient chaotic("127.0.0.1", proxy.port(), copts);
  EXPECT_THROW(chaotic.get("/v1/traffic-map"), Error);
  proxy.stop();

  HttpClient direct("127.0.0.1", service.port());
  EXPECT_EQ(direct.get("/healthz").status, 200);
  EXPECT_EQ(direct.get("/v1/traffic-map").status, 200);
  service.stop();
}

}  // namespace
}  // namespace wiloc::net
