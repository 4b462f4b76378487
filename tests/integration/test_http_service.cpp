// In-process integration tests of the HTTP service over a trained
// MiniCity server: endpoint semantics, parity with direct server
// queries, the background checkpoint thread, readiness and graceful
// shutdown. Requests go through WiLocatorService::handle() directly
// (same code path the socketed loop drives) plus one socketed case to
// prove the wiring end to end.
#include "net/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "../helpers.hpp"
#include "../json_tree.hpp"
#include "cluster/router.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"
#include "sim/bus_trip.hpp"

namespace wiloc::net {
namespace {

using wiloc::testing::TempDir;

using roadnet::TripId;

struct ServiceFixture {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  core::WiLocatorServer server;

  explicit ServiceFixture(core::ServerConfig config = {})
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), config) {}

  void train(int days = 3) {
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

  std::vector<sim::ScanReport> live_reports(TripId id, double day_time) {
    Rng rng(77);
    const auto trip =
        sim::simulate_trip(id, city.route_a(), city.profiles[0], traffic,
                           at_day_time(5, day_time), rng);
    const rf::Scanner scanner;
    return sim::sense_trip(trip, city.route_a(), city.aps, city.model,
                           scanner, rng);
  }
};

TEST(HttpService, ScansThenArrivalMatchesDirectQueries) {
  ServiceFixture f;
  f.train();
  WiLocatorService service(f.server);
  // No start(): handle() works in-process without a socket.

  EXPECT_EQ(service.handle({.method = "POST",
                            .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);

  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_FALSE(reports.empty());
  // Post the whole trip as JSON batches of 50.
  for (std::size_t i = 0; i < reports.size(); i += 50) {
    std::vector<core::ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, reports.size()); ++j)
      batch.push_back({reports[j].trip, reports[j].scan});
    const HttpResponse resp = service.handle(
        {.method = "POST", .path = "/v1/scans",
         .body = encode_scan_batch(batch)});
    ASSERT_EQ(resp.status, 200) << resp.body;
  }

  const double now = reports.back().scan.time;

  // Arrival via HTTP == arrival via the server API.
  HttpRequest arrival_req{.method = "GET", .path = "/v1/arrival"};
  arrival_req.query = {{"trip", "5"}, {"stop", "3"},
                       {"now", std::to_string(now)}};
  const HttpResponse arrival = service.handle(arrival_req);
  ASSERT_EQ(arrival.status, 200) << arrival.body;
  const auto doc = parse_json(arrival.body);
  ASSERT_TRUE(doc.has_value());
  const auto direct = f.server.eta(TripId(5), 3, now);
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(doc->get_number("arrival_time").value_or(-1), *direct, 1e-6);
  EXPECT_NEAR(doc->get_number("eta_s").value_or(-1), *direct - now, 1e-6);

  // Route-level arrival finds the active trip.
  HttpRequest route_req{.method = "GET", .path = "/v1/arrival"};
  route_req.query = {{"route", "0"}, {"stop", "3"},
                     {"now", std::to_string(now)}};
  const HttpResponse by_route = service.handle(route_req);
  ASSERT_EQ(by_route.status, 200) << by_route.body;
  EXPECT_EQ(parse_json(by_route.body)->get_number("trip").value_or(-1), 5.0);

  // Position parity.
  HttpRequest pos_req{.method = "GET", .path = "/v1/position"};
  pos_req.query = {{"trip", "5"}};
  const HttpResponse pos = service.handle(pos_req);
  ASSERT_EQ(pos.status, 200);
  EXPECT_NEAR(parse_json(pos.body)->get_number("offset_m").value_or(-1),
              f.server.position(TripId(5)).value_or(-2), 1e-6);

  // Traffic map covers both routes' edges.
  HttpRequest map_req{.method = "GET", .path = "/v1/traffic-map"};
  const HttpResponse map = service.handle(map_req);
  ASSERT_EQ(map.status, 200);
  const auto map_doc = parse_json(map.body);
  ASSERT_TRUE(map_doc.has_value());
  EXPECT_EQ(map_doc->get("segments")->as_array()->size(), 6u);

  // Ending the trip removes it from route-level queries.
  EXPECT_EQ(service.handle({.method = "POST",
                            .path = "/v1/trips",
                            .body = R"({"trip":5,"end":true})"})
                .status,
            200);
  EXPECT_EQ(service.handle(route_req).status, 404);
}

TEST(HttpService, ErrorMapping) {
  ServiceFixture f;
  WiLocatorService service(f.server);

  // Unknown endpoint / wrong method.
  EXPECT_EQ(service.handle({.method = "GET", .path = "/nope"}).status, 404);
  EXPECT_EQ(service.handle({.method = "GET", .path = "/v1/scans"}).status,
            405);

  // Malformed JSON and missing fields.
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/scans",
                            .body = "{oops"})
                .status,
            400);
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/scans",
                            .body = "{}"})
                .status,
            400);
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":1})"})
                .status,
            400);

  // Unknown route -> NotFound -> 404; duplicate trip -> 409.
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":1,"route":9})"})
                .status,
            404);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":1,"route":0})"})
                .status,
            200);
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":1,"route":0})"})
                .status,
            409);

  // Unknown trip on queries.
  HttpRequest pos{.method = "GET", .path = "/v1/position"};
  pos.query = {{"trip", "42"}};
  EXPECT_EQ(service.handle(pos).status, 404);
  HttpRequest arrival{.method = "GET", .path = "/v1/arrival"};
  arrival.query = {{"trip", "42"}, {"stop", "1"}};
  EXPECT_EQ(service.handle(arrival).status, 404);
  arrival.query = {{"trip", "1"}};  // missing stop
  EXPECT_EQ(service.handle(arrival).status, 400);
}

TEST(HttpService, NonIntegralIdsAndIndicesAre400) {
  ServiceFixture f;
  f.train(1);
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":1,"route":0})"})
                .status,
            200);

  // Each of these parses as a double but names no trip, route or stop;
  // converting it to an integer would be undefined behaviour.
  const std::vector<std::vector<std::pair<std::string, std::string>>> bad = {
      {{"trip", "1"}, {"stop", "nan"}},  {{"trip", "1"}, {"stop", "1e30"}},
      {{"trip", "-1"}, {"stop", "1"}},   {{"trip", "1"}, {"stop", "1.5"}},
      {{"trip", "1"}, {"stop", "-1"}},   {{"trip", "4294967296"}, {"stop", "1"}},
      {{"route", "inf"}, {"stop", "1"}}, {{"route", "0.5"}, {"stop", "1"}}};
  for (const auto& query : bad) {
    HttpRequest arrival{.method = "GET", .path = "/v1/arrival"};
    for (const auto& [key, value] : query) arrival.query[key] = value;
    EXPECT_EQ(service.handle(arrival).status, 400)
        << query[0].first << "=" << query[0].second << " "
        << query[1].first << "=" << query[1].second;
  }
  HttpRequest pos{.method = "GET", .path = "/v1/position"};
  pos.query = {{"trip", "nan"}};
  EXPECT_EQ(service.handle(pos).status, 400);
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":2.5,"route":0})"})
                .status,
            400);
  EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":2,"route":-1})"})
                .status,
            400);

  // A scan batch with an out-of-range trip or AP id is rejected whole:
  // nothing reaches the engine.
  for (const char* body :
       {R"({"scans":[{"trip":1e20,"t":100,"readings":[[1,-60]]}]})",
        R"({"scans":[{"trip":1,"t":100,"readings":[[-3,-60]]}]})",
        R"({"scans":[{"trip":1,"t":100,"readings":[[1,-60]]},)"
        R"({"trip":1,"t":101,"readings":[[2.5,-61]]}]})"}) {
    const HttpResponse r =
        service.handle({.method = "POST", .path = "/v1/scans", .body = body});
    EXPECT_EQ(r.status, 400) << body << " -> " << r.body;
  }
  const obs::Snapshot snap = f.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("service.scans_posted"), 0u);
  EXPECT_EQ(snap.counter("engine.enqueued"), 0u);
}

TEST(HttpService, NonJsonNumbersInScansAre400) {
  // std::from_chars reads these, RFC 8259 does not: the batch is
  // rejected whole and nothing reaches the engine.
  ServiceFixture f;
  WiLocatorService service(f.server);
  for (const char* body :
       {R"({"scans":[{"trip":1,"t":inf,"readings":[[1,-60]]}]})",
        R"({"scans":[{"trip":1,"t":100,"readings":[[1,-nan]]}]})",
        R"({"scans":[{"trip":1,"t":100,"readings":[[1,INF]]}]})",
        R"({"scans":[{"trip":1,"t":1.,"readings":[[1,-60]]}]})",
        R"({"scans":[{"trip":1,"t":100,"readings":[[1,-60]]},)"
        R"({"trip":1,"t":-nan,"readings":[]}]})"}) {
    const HttpResponse r =
        service.handle({.method = "POST", .path = "/v1/scans", .body = body});
    EXPECT_EQ(r.status, 400) << body << " -> " << r.body;
    EXPECT_NE(r.body.find("bad number"), std::string::npos) << r.body;
  }
  const obs::Snapshot snap = f.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("service.scans_posted"), 0u);
  EXPECT_EQ(snap.counter("engine.enqueued"), 0u);
}

/// A present `now` that is not a finite sim time >= 0 is refused on both
/// read endpoints, even when the trip has a fix and the snapshot could
/// answer; nothing reaches the locked slow path.
class HttpServiceBadNow : public ::testing::TestWithParam<const char*> {};

TEST_P(HttpServiceBadNow, ArrivalAndTrafficMapAre400) {
  ServiceFixture f;
  f.train(1);
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  std::vector<core::ScanSubmission> batch;
  for (std::size_t i = 0; i < std::min<std::size_t>(reports.size(), 50); ++i)
    batch.push_back({reports[i].trip, reports[i].scan});
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/scans",
                            .body = encode_scan_batch(batch)})
                .status,
            200);
  ASSERT_TRUE(f.server.position(TripId(5)).has_value());

  for (const char* key : {"trip", "route"}) {
    HttpRequest arrival{.method = "GET", .path = "/v1/arrival"};
    arrival.query = {{key, key == std::string("trip") ? "5" : "0"},
                     {"stop", "3"},
                     {"now", GetParam()}};
    const HttpResponse r = service.handle(arrival);
    EXPECT_EQ(r.status, 400) << key << " -> " << r.body;
    EXPECT_EQ(r.body, R"({"error":"bad \"now\""})");
  }
  HttpRequest map{.method = "GET", .path = "/v1/traffic-map"};
  map.query = {{"now", GetParam()}};
  const HttpResponse r = service.handle(map);
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_EQ(r.body, R"({"error":"bad \"now\""})");
  const obs::Snapshot snap = f.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("service.arrivals_served"), 0u);
  EXPECT_EQ(snap.counter("arrival_cache.hits"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Values, HttpServiceBadNow,
                         ::testing::Values("abc", "1e400", "nan", "inf",
                                           "-inf", "-1"),
                         [](const auto& info) {
                           const std::string v = info.param;
                           if (v == "abc") return std::string("NotANumber");
                           if (v == "1e400") return std::string("Overflow");
                           if (v == "nan") return std::string("NaN");
                           if (v == "inf") return std::string("Infinity");
                           if (v == "-inf") return std::string("MinusInfinity");
                           return std::string("Negative");
                         });

/// A query parameter that is present but not an RFC 8259 number — the
/// grammar of every JSON body — is refused with 400 `bad "<name>"`
/// (`missing or bad` for the required `stop` and position `trip`). It
/// used to be read as absent (the route-level answer, a page from
/// sequence 0), and spellings JSON refuses (".5", "1.", "03") were read
/// as numbers.
struct BadQuery {
  const char* name;
  const char* target;
  const char* body;  ///< the 400 answer
};

void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.target; }

/// Reads: the service and the router answer each the same way.
const BadQuery kBadReads[] = {
    {"TripNotANumber", "/v1/arrival?trip=abc&route=0&stop=3",
     R"({"error":"bad \"trip\""})"},
    {"TripHex", "/v1/arrival?trip=0x10&route=0&stop=3",
     R"({"error":"bad \"trip\""})"},
    {"TripEmpty", "/v1/arrival?trip=&route=0&stop=3",
     R"({"error":"bad \"trip\""})"},
    {"RouteNaNBesideTrip", "/v1/arrival?trip=5&route=nan&stop=3",
     R"({"error":"bad \"route\""})"},
    {"RouteNotANumber", "/v1/arrival?route=abc&stop=3",
     R"({"error":"bad \"route\""})"},
    {"StopTrailingPoint", "/v1/arrival?trip=5&stop=1.",
     R"({"error":"missing or bad \"stop\""})"},
    {"StopLeadingZero", "/v1/arrival?trip=5&stop=03",
     R"({"error":"missing or bad \"stop\""})"},
    {"NowLeadingPoint", "/v1/arrival?trip=5&stop=3&now=.5",
     R"({"error":"bad \"now\""})"},
    {"NowTrailingPoint", "/v1/arrival?trip=5&stop=3&now=1.",
     R"({"error":"bad \"now\""})"},
    {"TrafficNowTrailingPoint", "/v1/traffic-map?now=1.",
     R"({"error":"bad \"now\""})"},
    {"PositionTripTrailingPoint", "/v1/position?trip=5.",
     R"({"error":"missing or bad \"trip\""})"},
};

/// Replication pages, which only a node serves.
const BadQuery kBadPages[] = {
    {"AfterNotANumber", "/v1/replication/segments?after=abc",
     R"({"error":"bad \"after\""})"},
    {"MaxBytesNotANumber", "/v1/replication/segments?max_bytes=abc",
     R"({"error":"bad \"max_bytes\""})"},
};

std::string bad_query_name(const ::testing::TestParamInfo<BadQuery>& info) {
  return info.param.name;
}

HttpRequest get(const std::string& target) {
  HttpRequest request{.method = "GET", .target = target};
  split_target(target, &request.path, &request.query);
  return request;
}

/// A persisted node whose trip 5 on route 0 has a fix, so each bad query
/// above, read leniently, would have an answer.
struct FixedTripNode {
  TempDir dir{"wiloc_bad_query"};
  ServiceFixture f{persisted(dir)};
  WiLocatorService service{f.server};

  static core::ServerConfig persisted(const TempDir& dir) {
    core::ServerConfig config;
    config.persist.dir = dir.path();
    return config;
  }

  FixedTripNode() {
    f.train(1);
    EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                              .body = R"({"trip":5,"route":0})"})
                  .status,
              200);
    const auto reports = f.live_reports(TripId(5), hms(9));
    std::vector<core::ScanSubmission> batch;
    for (std::size_t i = 0; i < std::min<std::size_t>(reports.size(), 50);
         ++i)
      batch.push_back({reports[i].trip, reports[i].scan});
    EXPECT_EQ(service.handle({.method = "POST", .path = "/v1/scans",
                              .body = encode_scan_batch(batch)})
                  .status,
              200);
    EXPECT_TRUE(f.server.position(TripId(5)).has_value());
  }
};

class HttpServiceBadQuery : public ::testing::TestWithParam<BadQuery> {};

TEST_P(HttpServiceBadQuery, Is400) {
  FixedTripNode node;
  const HttpResponse r = node.service.handle(get(GetParam().target));
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_EQ(r.body, GetParam().body);
}

INSTANTIATE_TEST_SUITE_P(Reads, HttpServiceBadQuery,
                         ::testing::ValuesIn(kBadReads), bad_query_name);
INSTANTIATE_TEST_SUITE_P(Pages, HttpServiceBadQuery,
                         ::testing::ValuesIn(kBadPages), bad_query_name);

class ClusterRouterBadQuery : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ClusterRouterBadQuery, Is400) {
  FixedTripNode node;
  node.service.start();
  node.service.set_ready(true);
  cluster::ClusterRouter router({{"n0", "127.0.0.1", node.service.port()}});
  const HttpResponse r = router.handle(get(GetParam().target));
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_EQ(r.body, GetParam().body);
  node.service.stop();
}

INSTANTIATE_TEST_SUITE_P(Reads, ClusterRouterBadQuery,
                         ::testing::ValuesIn(kBadReads), bad_query_name);

TEST(ClusterRouter, RefusesABadTripBodyWithTheNodesOwn400) {
  // The router decodes POST /v1/trips with the node's decoder, so a body
  // the node would refuse is refused before any hop, byte for byte as
  // the node words it; a good one still reaches the node.
  FixedTripNode node;
  node.service.start();
  node.service.set_ready(true);
  cluster::ClusterRouter router({{"n0", "127.0.0.1", node.service.port()}});
  const auto post = [](const char* body) {
    return HttpRequest{.method = "POST", .target = "/v1/trips",
                       .path = "/v1/trips", .body = body};
  };
  for (const char* body :
       {"{oops", "", R"({"route":0})", R"({"trip":7})", R"({"trip":7,"end":1})",
        R"({"trip":7,"route":-1})", R"({"trip":7,"route":0.5})",
        R"({"trip":1e10,"end":true})", R"([{"trip":7,"route":0}])",
        R"({"trip":7,"route":0} x)", R"({"trip":7,"route":.5})"}) {
    const HttpResponse want = node.service.handle(post(body));
    const HttpResponse got = router.handle(post(body));
    EXPECT_EQ(got.status, 400) << body;
    EXPECT_EQ(got.status, want.status) << body;
    EXPECT_EQ(got.body, want.body) << body;
  }
  const auto& node_requests =
      node.f.server.metrics_registry().counter("http.requests");
  EXPECT_EQ(node_requests.value(), 0u);
  EXPECT_EQ(router.handle(post(R"({"trip":7,"route":0})")).status, 200);
  EXPECT_TRUE(node.f.server.has_trip(TripId(7)));
  EXPECT_EQ(router.handle(post(R"({"trip":7,"end":true})")).status, 200);
  EXPECT_EQ(node_requests.value(), 2u);
  node.service.stop();
}

TEST(HttpService, PreconditionFailureNamesNoSourceFile) {
  // A stop past the route's last stop trips the predictor's
  // precondition on the slow path: 400 with a fixed text, counted in
  // http.contract_violations.
  ServiceFixture f;
  f.train(1);
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  std::vector<core::ScanSubmission> batch;
  for (std::size_t i = 0; i < std::min<std::size_t>(reports.size(), 50); ++i)
    batch.push_back({reports[i].trip, reports[i].scan});
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/scans",
                            .body = encode_scan_batch(batch)})
                .status,
            200);
  HttpRequest arrival{.method = "GET", .path = "/v1/arrival"};
  arrival.query = {{"trip", "5"}, {"stop", "999"}, {"now", "0"}};
  auto& violations = f.server.metrics_registry().counter(
      "http.contract_violations");
  EXPECT_EQ(violations.value(), 0u);
  const HttpResponse r = service.handle(arrival);
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.body, R"({"error":"query outside the model's domain"})");
  EXPECT_EQ(violations.value(), 1u);
}

TEST(HttpService, MetricsEndpointJsonAndPrometheus) {
  ServiceFixture f;
  WiLocatorService service(f.server);
  service.handle({.method = "POST", .path = "/v1/trips",
                  .body = R"({"trip":2,"route":0})"});

  const HttpResponse json = service.handle({.method = "GET",
                                            .path = "/metrics"});
  ASSERT_EQ(json.status, 200);
  const auto doc = parse_json(json.body);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->get("counters");
  ASSERT_NE(counters, nullptr);
  // Every ingest.* name is rendered from IngestStats; deferred is the
  // gauge of buffered scans.
  for (const char* name :
       {"ingest.submitted", "ingest.accepted", "ingest.reordered",
        "ingest.fixes", "ingest.degraded_fixes",
        "ingest.readings_dropped.invalid", "ingest.readings_dropped.weak",
        "ingest.readings_dropped.duplicate",
        "ingest.readings_dropped.unknown_ap"})
    EXPECT_TRUE(counters->get_number(name).has_value()) << name;
  for (std::size_t r = 1; r < core::kRejectReasonCount; ++r) {
    const std::string name =
        std::string("ingest.rejected.") +
        core::to_string(static_cast<core::RejectReason>(r));
    EXPECT_TRUE(counters->get_number(name).has_value()) << name;
  }
  ASSERT_NE(doc->get("gauges"), nullptr);
  EXPECT_TRUE(doc->get("gauges")->get_number("ingest.deferred").has_value());

  HttpRequest prom_req{.method = "GET", .path = "/metrics"};
  prom_req.query = {{"format", "prometheus"}};
  const HttpResponse prom = service.handle(prom_req);
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.headers.at("Content-Type").find("version=0.0.4"),
            std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE wiloc_ingest_submitted counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE wiloc_ingest_deferred gauge"),
            std::string::npos);
  EXPECT_NE(prom.body.find("wiloc_engine_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

TEST(HttpService, ReadinessGating) {
  ServiceFixture f;
  WiLocatorService service(f.server);
  EXPECT_EQ(service.handle({.method = "GET", .path = "/healthz"}).status,
            200);
  EXPECT_EQ(service.handle({.method = "GET", .path = "/readyz"}).status,
            503);
  service.set_ready(true);
  const HttpResponse ready = service.handle({.method = "GET",
                                             .path = "/readyz"});
  EXPECT_EQ(ready.status, 200);
  EXPECT_NE(ready.body.find("\"recovered\":false"), std::string::npos);
}

TEST(HttpService, BackgroundCheckpointerCommitsOffThread) {
  TempDir dir("wiloc_http_service");
  core::ServerConfig config;
  config.persist.dir = dir.path();
  config.persist.snapshot_interval_s = 60.0;  // sim-time trigger
  ServiceFixture f(config);
  f.train(1);

  ServiceOptions options;
  options.checkpoint_poll_s = 0.01;
  WiLocatorService service(f.server, options);
  service.start();
  service.set_ready(true);

  // With the service running, inline checkpoints are off: ingest alone
  // must not checkpoint on the control thread, the background thread
  // must pick it up within a few polls.
  service.handle({.method = "POST", .path = "/v1/trips",
                  .body = R"({"trip":5,"route":0})"});
  const auto reports = f.live_reports(TripId(5), hms(9));
  std::vector<core::ScanSubmission> batch;
  for (const auto& r : reports) batch.push_back({r.trip, r.scan});
  service.handle({.method = "POST", .path = "/v1/scans",
                  .body = encode_scan_batch(batch)});

  const auto commits = [&] {
    return f.server.metrics_snapshot().counter(
        "service.checkpoints_committed");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (commits() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(commits(), 0u);

  service.stop();
  service.stop();  // idempotent

  // Graceful stop drained + checkpointed: a fresh server on the same
  // directory recovers the learned state without replaying anything.
  core::ServerConfig config2;
  config2.persist.dir = dir.path();
  core::WiLocatorServer restored(
      {&f.city.route_a(), &f.city.route_b()}, f.city.ap_snapshot(),
      f.city.model, DaySlots::paper_five_slots(), config2);
  EXPECT_TRUE(restored.recovered());
  const auto recent = f.server.store().recent(
      f.city.route_a().edges()[0], reports.back().scan.time, 3600.0, 8);
  const auto recovered_recent = restored.store().recent(
      f.city.route_a().edges()[0], reports.back().scan.time, 3600.0, 8);
  EXPECT_EQ(recent.size(), recovered_recent.size());
}

TEST(HttpService, FailedCheckpointIsCountedAndServiceKeepsServing) {
  // Regression: only the commit was guarded, so a seal failing inside
  // the checkpoint thread's prepare escaped the thread and terminated
  // the process.
  TempDir dir("wiloc_http_service");
  core::ServerConfig config;
  config.persist.dir = dir.path();
  config.persist.journal_trigger_bytes = 64;  // any journaled record is due
  config.persist.snapshot_interval_s = 1e12;
  ServiceFixture f(config);
  // Journal a few records without checkpointing them, so the first
  // background prepare has a non-empty journal to seal.
  f.server.set_inline_checkpoints(false);
  const roadnet::BusRoute& route = f.city.route_a();
  for (int i = 0; i < 4; ++i)
    f.server.load_history({route.edges()[0], route.id(),
                           at_day_time(0, hms(8)) + 60.0 * i, 50.0 + i});
  ASSERT_TRUE(f.server.checkpoint_due());
  // A directory squatting on the sealed path makes the seal fail.
  std::filesystem::create_directory(
      f.server.persistence()->sealed_journal_path());

  ServiceOptions options;
  options.checkpoint_poll_s = 0.01;
  WiLocatorService service(f.server, options);
  service.start();
  const auto failures = [&] {
    return f.server.metrics_snapshot().counter("service.checkpoint_failures");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (failures() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(failures(), 1u);
  EXPECT_EQ(f.server.metrics_snapshot().counter(
                "service.checkpoints_committed"),
            0u);
  EXPECT_TRUE(f.server.persistence()->poisoned());
  EXPECT_EQ(service.handle({.method = "GET", .path = "/healthz"}).status, 200);
  service.stop();
}

/// One histogram of a Prometheus text body: its `_bucket` lines in
/// order and its `_count`.
struct PromHistogram {
  std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cumulative)
  std::uint64_t count = 0;
  bool has_count = false;
};

std::map<std::string, PromHistogram> parse_prometheus_histograms(
    const std::string& body) {
  std::map<std::string, PromHistogram> out;
  std::istringstream lines(body);
  std::string line;
  const std::string type_prefix = "# TYPE ";
  while (std::getline(lines, line)) {
    if (line.rfind(type_prefix, 0) == 0) {
      const std::size_t space = line.find(' ', type_prefix.size());
      if (line.substr(space + 1) == "histogram")
        out[line.substr(type_prefix.size(), space - type_prefix.size())];
      continue;
    }
    for (auto& [name, h] : out) {
      const std::string bucket = name + "_bucket{le=\"";
      const std::string count = name + "_count ";
      if (line.rfind(bucket, 0) == 0) {
        const std::size_t quote = line.find('"', bucket.size());
        const std::string le = line.substr(bucket.size(), quote - bucket.size());
        h.buckets.emplace_back(
            le == "+Inf" ? std::numeric_limits<double>::infinity()
                         : std::stod(le),
            std::stoull(line.substr(line.find("} ") + 2)));
      } else if (line.rfind(count, 0) == 0) {
        h.count = std::stoull(line.substr(count.size()));
        h.has_count = true;
      }
    }
  }
  return out;
}

TEST(HttpService, SocketedEndToEnd) {
  core::ServerConfig config;
  config.engine.workers = 2;  // threaded: samples the engine histograms
  config.engine.record_latency = true;
  ServiceFixture f(config);
  f.train(1);
  WiLocatorService service(f.server);
  service.start();
  service.set_ready(true);
  ASSERT_NE(service.port(), 0);

  HttpClient client("127.0.0.1", service.port());
  EXPECT_EQ(client.get("/healthz").status, 200);
  EXPECT_EQ(client.get("/readyz").status, 200);
  EXPECT_EQ(client.post("/v1/trips", R"({"trip":9,"route":1})").status,
            200);
  const auto scans = client.post(
      "/v1/scans",
      R"({"scans":[{"trip":9,"t":100.0,"readings":[[1,-60],[2,-70]]}]})");
  EXPECT_EQ(scans.status, 200);
  const auto doc = parse_json(scans.body);
  EXPECT_EQ(doc->get_number("submitted").value_or(-1), 1.0);
  EXPECT_GE(f.server.metrics_snapshot().counter("service.scans_posted"), 1u);

  // Ingest a whole live trip and read an arrival back, then check every
  // histogram the served Prometheus exposition carries.
  EXPECT_EQ(client.post("/v1/trips", R"({"trip":5,"route":0})").status, 200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_FALSE(reports.empty());
  for (std::size_t i = 0; i < reports.size(); i += 50) {
    std::vector<core::ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, reports.size()); ++j)
      batch.push_back({reports[j].trip, reports[j].scan});
    ASSERT_EQ(client.post("/v1/scans", encode_scan_batch(batch)).status, 200);
  }
  f.server.drain();
  EXPECT_EQ(client
                .get("/v1/arrival?trip=5&stop=3&now=" +
                     std::to_string(reports.back().scan.time))
                .status,
            200);
  const auto prom = client.get("/metrics?format=prometheus");
  ASSERT_EQ(prom.status, 200);
  const auto histograms = parse_prometheus_histograms(prom.body);
  for (const char* name :
       {"wiloc_http_handler_us", "wiloc_locate_candidates",
        "wiloc_engine_latency_us", "wiloc_engine_queue_depth",
        "wiloc_predictor_correction_s", "wiloc_arrival_cache_refresh_us"})
    EXPECT_EQ(histograms.count(name), 1u) << name << "\n" << prom.body;
  for (const auto& [name, h] : histograms) {
    ASSERT_FALSE(h.buckets.empty()) << name;
    ASSERT_TRUE(h.has_count) << name;
    // The last line is +Inf and equals _count.
    EXPECT_TRUE(std::isinf(h.buckets.back().first)) << name;
    EXPECT_EQ(h.buckets.back().second, h.count) << name;
    for (std::size_t i = 0; i + 1 < h.buckets.size(); ++i) {
      EXPECT_LT(h.buckets[i].first, h.buckets[i + 1].first) << name << " " << i;
      EXPECT_LE(h.buckets[i].second, h.buckets[i + 1].second)
          << name << " " << i;
      // Sparse: each finite line adds a non-empty bucket, so the
      // cumulative count strictly grows from line to line.
      EXPECT_LT(i == 0 ? 0u : h.buckets[i - 1].second, h.buckets[i].second)
          << name << " " << i;
    }
  }
  // The run filled the request, locate and engine histograms.
  EXPECT_GT(histograms.at("wiloc_http_handler_us").buckets.size(), 1u);
  EXPECT_GT(histograms.at("wiloc_locate_candidates").count, 0u);
  EXPECT_GT(histograms.at("wiloc_engine_latency_us").count, 0u);
  EXPECT_GT(histograms.at("wiloc_engine_queue_depth").count, 0u);

  service.stop();
  EXPECT_FALSE(service.running());
  // After stop the port no longer accepts.
  HttpClient stale("127.0.0.1", service.port());
  EXPECT_THROW(stale.get("/healthz"), Error);
}

}  // namespace
}  // namespace wiloc::net
