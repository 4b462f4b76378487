// The rider read path over HTTP (DESIGN.md §13): snapshot
// fast-path hits with X-Cache/X-Epoch, byte parity with the pinned-now
// slow path (trip- and route-level), a snapshot age that grows while
// nothing reads, epoch advancement as ingest changes remaining
// segments, forced degraded mode (snapshot hit or 503), route-level
// reads of trips begun on the server directly, and that rider reads
// never take the service lock under a concurrent ingest + read load
// (runs under TSan in CI via the Http* regex).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "../json_tree.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"
#include "sim/bus_trip.hpp"
#include "util/json_num.hpp"

namespace wiloc::net {
namespace {

using roadnet::TripId;

struct ReadPathFixture {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  core::WiLocatorServer server;

  ReadPathFixture()
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots()) {}

  explicit ReadPathFixture(const core::ServerConfig& config)
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), config) {}

  void train(int days = 2) {
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

  /// Scan reports of one sensed route-A trip departing at `day_time`
  /// on day 5.
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

/// Posts `reports[first, last)` as /v1/scans JSON batches of 50.
void post_scans(WiLocatorService& service,
                const std::vector<sim::ScanReport>& reports,
                std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; i += 50) {
    std::vector<core::ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, last); ++j)
      batch.push_back({reports[j].trip, reports[j].scan});
    const HttpResponse resp = service.handle(
        {.method = "POST", .path = "/v1/scans",
         .body = encode_scan_batch(batch)});
    ASSERT_EQ(resp.status, 200) << resp.body;
  }
}

HttpRequest arrival_get(const std::string& trip_or_route,
                        const std::string& id, const std::string& stop) {
  HttpRequest req{.method = "GET", .path = "/v1/arrival"};
  req.query = {{trip_or_route, id}, {"stop", stop}};
  return req;
}

TEST(HttpReadPath, SnapshotServesRiderReadsWithoutLocks) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_FALSE(reports.empty());
  post_scans(service, reports, 0, reports.size());

  // Trip-level rider poll: rendered from the snapshot, no service lock,
  // tagged headers.
  const HttpResponse hit = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  ASSERT_EQ(hit.headers.count("X-Cache"), 1u);
  EXPECT_EQ(hit.headers.at("X-Cache"), "hit");
  ASSERT_EQ(hit.headers.count("X-Epoch"), 1u);
  const auto doc = parse_json(hit.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_number("trip").value_or(-1), 5.0);
  EXPECT_EQ(doc->get_number("stop").value_or(-1), 3.0);
  EXPECT_GT(doc->get_number("eta_s").value_or(-1), 0.0);

  // Route-level poll rides the materialized best-trip index.
  const HttpResponse by_route =
      service.handle(arrival_get("route", "0", "3"));
  ASSERT_EQ(by_route.status, 200) << by_route.body;
  EXPECT_EQ(by_route.headers.at("X-Cache"), "hit");
  EXPECT_EQ(by_route.body, hit.body);  // only trip 5 is active

  // Traffic map without `now`: rendered from the same snapshot's map.
  const HttpResponse map =
      service.handle({.method = "GET", .path = "/v1/traffic-map"});
  ASSERT_EQ(map.status, 200);
  EXPECT_EQ(map.headers.at("X-Cache"), "hit");
  const auto map_doc = parse_json(map.body);
  ASSERT_TRUE(map_doc.has_value());
  EXPECT_EQ(map_doc->get("segments")->as_array()->size(), 6u);

  const auto snap = f.server.metrics_snapshot();
  EXPECT_GE(snap.counter("arrival_cache.hits"), 3u);
  // Work budget (servebench core.snapshot_hit_ratio): every GET without
  // `now` on a published trip is answered from the snapshot.
  const double hits = static_cast<double>(snap.counter("arrival_cache.hits"));
  const double misses =
      static_cast<double>(snap.counter("arrival_cache.misses"));
  EXPECT_GE(hits / (hits + misses), 1.0);
  EXPECT_EQ(snap.counter("http.read_slow_path"), 0u);
  EXPECT_GE(snap.counter("arrival_cache.rebuilds"), 1u);
}

TEST(HttpReadPath, SnapshotAgeGrowsWithoutReads) {
  // arrival_cache.snapshot_age_s is computed when metrics are read, so
  // it keeps moving when rider reads stop.
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  const auto scraped_age = [&]() -> std::optional<double> {
    const auto doc =
        parse_json(service.handle({.method = "GET", .path = "/metrics"}).body);
    if (!doc.has_value() || doc->get("gauges") == nullptr) return std::nullopt;
    return doc->get("gauges")->get_number("arrival_cache.snapshot_age_s");
  };
  EXPECT_FALSE(scraped_age().has_value());  // nothing published yet

  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  post_scans(service, reports, 0, reports.size());
  const auto published = f.server.arrival_snapshot();
  ASSERT_NE(published, nullptr);

  const double wait_s = 0.25;
  std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
  const std::optional<double> age = scraped_age();
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, wait_s);
  // No rider read and no rebuild happened in between.
  EXPECT_EQ(f.server.metrics_snapshot().counter("arrival_cache.hits"), 0u);
  EXPECT_EQ(f.server.arrival_snapshot(), published);
}

TEST(HttpReadPath, PinnedNowSlowPathMatchesSnapshotBytes) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  for (const char* body :
       {R"({"trip":5,"route":0})", R"({"trip":6,"route":0})"})
    ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                              .body = body})
                  .status,
              200);
  // Trip 6 departs first, so it runs ahead of trip 5: stops both have
  // passed tie at `now` (the lower id wins), the rest go to trip 6.
  auto reports = f.live_reports(TripId(6), hms(9));
  const auto behind = f.live_reports(TripId(5), hms(9) + 300.0);
  ASSERT_FALSE(reports.empty());
  ASSERT_FALSE(behind.empty());
  ASSERT_LT(behind.front().scan.time, reports.back().scan.time);
  const double cut = (behind.front().scan.time + reports.back().scan.time) / 2;
  reports.insert(reports.end(), behind.begin(), behind.end());
  std::stable_sort(reports.begin(), reports.end(),
                   [](const auto& a, const auto& b) {
                     return a.scan.time < b.scan.time;
                   });
  std::size_t last = 0;
  while (last < reports.size() && reports[last].scan.time <= cut) ++last;
  // Both buses are en route at the cut and the final batch moves both,
  // so the last refresh computed both trips' entries at one `now`.
  post_scans(service, reports, 0, last);

  const HttpResponse hit = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  ASSERT_EQ(hit.headers.count("X-Cache"), 1u);
  const auto doc = parse_json(hit.body);
  ASSERT_TRUE(doc.has_value());
  const auto now = doc->get_number("now");
  ASSERT_TRUE(now.has_value());

  // Pinning the snapshot's own `now` must reproduce the materialized
  // bytes through the locked prediction chain — parity by construction.
  HttpRequest pinned = arrival_get("trip", "5", "3");
  pinned.query["now"] = json_num(*now);
  const HttpResponse slow = service.handle(pinned);
  ASSERT_EQ(slow.status, 200) << slow.body;
  EXPECT_EQ(slow.headers.count("X-Cache"), 0u);
  EXPECT_EQ(slow.body, hit.body);

  // Route level: the slow path picks the same trip as the snapshot's
  // route-best index, stop by stop, ties included.
  const auto snap = f.server.arrival_snapshot();
  ASSERT_NE(snap, nullptr);
  const core::TripArrivals* ahead = snap->find(TripId(6));
  const core::TripArrivals* trailing = snap->find(TripId(5));
  ASSERT_NE(ahead, nullptr);
  ASSERT_NE(trailing, nullptr);
  ASSERT_EQ(ahead->now, trailing->now);
  ASSERT_GT(ahead->offset, trailing->offset);
  char snap_now[32];
  std::snprintf(snap_now, sizeof(snap_now), "%.17g", ahead->now);
  std::set<std::uint32_t> winners;
  for (std::size_t stop = 0; stop < ahead->body.size(); ++stop) {
    const core::TripArrivals* best = snap->best(roadnet::RouteId(0), stop);
    ASSERT_NE(best, nullptr);
    winners.insert(best->trip.value());
    HttpRequest by_route = arrival_get("route", "0", std::to_string(stop));
    by_route.query["now"] = snap_now;
    const HttpResponse route_slow = service.handle(by_route);
    ASSERT_EQ(route_slow.status, 200) << route_slow.body;
    EXPECT_EQ(route_slow.body, best->body[stop]) << "stop " << stop;
  }
  EXPECT_EQ(winners, (std::set<std::uint32_t>{5, 6}));
  // A pinned `now` is a computation request, not a slow-path miss.
  EXPECT_EQ(f.server.metrics_snapshot().counter("http.read_slow_path"), 0u);
}

// A trip begun on the server before any service exists (as embedding
// code and benches do) is still an active trip for route-level reads:
// the service keeps no trip registry of its own.
TEST(HttpReadPath, RouteLevelSlowPathSeesTripsBegunOnServer) {
  ReadPathFixture f;
  f.train();
  f.server.begin_trip(TripId(5), roadnet::RouteId(0));
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_FALSE(reports.empty());
  WiLocatorService service(f.server);
  post_scans(service, reports, 0, reports.size() / 2);

  HttpRequest pinned = arrival_get("route", "0", "3");
  pinned.query["now"] =
      json_num(reports[reports.size() / 2 - 1].scan.time);
  const HttpResponse by_route = service.handle(pinned);
  ASSERT_EQ(by_route.status, 200) << by_route.body;
  HttpRequest by_trip = arrival_get("trip", "5", "3");
  by_trip.query["now"] = pinned.query["now"];
  EXPECT_EQ(by_route.body, service.handle(by_trip).body);
}

TEST(HttpReadPath, EpochAdvancesWithRemainingSegmentEvidence) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);

  post_scans(service, reports, 0, reports.size() / 2);
  const HttpResponse early = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(early.status, 200) << early.body;
  ASSERT_EQ(early.headers.count("X-Epoch"), 1u);
  const std::uint64_t e1 = std::stoull(early.headers.at("X-Epoch"));

  // The second half of the trip: the bus moves and fresh traversals
  // land on the store, so the cached answer must be re-materialized at
  // a later epoch with different bytes.
  post_scans(service, reports, reports.size() / 2, reports.size());
  const HttpResponse late = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(late.status, 200) << late.body;
  const std::uint64_t e2 = std::stoull(late.headers.at("X-Epoch"));
  EXPECT_GT(e2, e1);
  EXPECT_NE(late.body, early.body);
  EXPECT_GE(f.server.metrics_snapshot().counter("arrival_cache.invalidations"),
            1u);
}

TEST(HttpReadPath, ForcedDegradedServesSnapshotBeforeLastGood) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  post_scans(service, reports, 0, reports.size());
  HttpRequest pinned = arrival_get("trip", "5", "3");
  pinned.query["now"] = "123456";
  ASSERT_EQ(service.handle(pinned).status, 200);

  service.set_degraded(true);
  EXPECT_TRUE(service.degraded());
  EXPECT_EQ(f.server.metrics_snapshot().gauge("service.degraded"), 1.0);
  // No-`now` reads keep getting the fresh materialized answer.
  for (const HttpRequest& req :
       {arrival_get("trip", "5", "3"), arrival_get("route", "0", "3"),
        HttpRequest{.method = "GET", .path = "/v1/traffic-map"}}) {
    const HttpResponse fresh = service.handle(req);
    ASSERT_EQ(fresh.status, 200) << fresh.body;
    EXPECT_EQ(fresh.headers.at("X-Cache"), "hit");
  }

  // Reads the snapshot cannot answer shed instead of touching learned
  // state — even one that succeeded a moment ago.
  HttpRequest pinned_map{.method = "GET", .path = "/v1/traffic-map"};
  pinned_map.query = {{"now", "123456"}};
  for (const HttpRequest& req : {pinned, pinned_map}) {
    const HttpResponse shed = service.handle(req);
    EXPECT_EQ(shed.status, 503);
    EXPECT_EQ(shed.headers.at("Retry-After"), "1");
    EXPECT_NE(shed.body.find("\"reason\":\"forced_degraded\""),
              std::string::npos);
  }

  service.set_degraded(false);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.handle(pinned).status, 200);
}

TEST(HttpReadPath, CoalescedRefreshStaysPendingUntilFlushed) {
  core::ServerConfig config;
  config.arrival.min_refresh_wall_s = 3600.0;  // never within this test
  ReadPathFixture f(config);
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);

  // The first post-finalize refresh is always allowed; everything after
  // it coalesces, so the snapshot stays pinned at the first half.
  post_scans(service, reports, 0, reports.size() / 2);
  const auto first = f.server.arrival_snapshot();
  ASSERT_NE(first, nullptr);
  post_scans(service, reports, reports.size() / 2, reports.size());
  EXPECT_EQ(f.server.arrival_snapshot(), first);
  const auto mid = f.server.metrics_snapshot();
  EXPECT_EQ(mid.counter("arrival_cache.rebuilds"), 1u);

  // Rider reads keep hitting the (stale-by-a-window) snapshot.
  const HttpResponse hit = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  EXPECT_EQ(hit.headers.at("X-Cache"), "hit");

  // flush_arrivals (what the service checkpoint poll calls) publishes
  // the deferred work: positions from the later batches land at once.
  f.server.flush_arrivals();
  const auto flushed = f.server.arrival_snapshot();
  ASSERT_NE(flushed, nullptr);
  EXPECT_NE(flushed, first);
  EXPECT_GT(flushed->find(TripId(5))->offset, first->find(TripId(5))->offset);
  const auto end = f.server.metrics_snapshot();
  EXPECT_EQ(end.counter("arrival_cache.rebuilds"), 2u);
}

TEST(HttpReadPath, ConcurrentIngestAndReadsStayOffTheServiceLock) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);
  // Warm the snapshot so every rider read below can be a pure hit.
  const std::size_t half = reports.size() / 2;
  post_scans(service, reports, 0, half);

  constexpr std::size_t kReadsPerThread = 300;
  std::atomic<std::size_t> readers_done{0};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kReadsPerThread; ++i) {
        const HttpRequest req =
            (i + static_cast<std::size_t>(r)) % 2 == 0
                ? arrival_get("trip", "5", "3")
                : HttpRequest{.method = "GET", .path = "/v1/traffic-map"};
        const HttpResponse resp = service.handle(req);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (resp.status != 200)
          failures.fetch_add(1, std::memory_order_relaxed);
        else if (resp.headers.count("X-Cache") != 0)
          hits.fetch_add(1, std::memory_order_relaxed);
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }
  // The writer keeps ingesting (and republishing snapshots) while the
  // readers poll — the race TSan watches. Re-posting the tail batches
  // is valid traffic (the ingest guard drops duplicates) and keeps the
  // writer holding and releasing the service lock for the whole race.
  for (int round = 0;
       round < 1000 && readers_done.load(std::memory_order_acquire) < 2;
       ++round)
    post_scans(service, reports, half, reports.size());
  for (auto& t : readers) t.join();

  EXPECT_EQ(reads.load(), 2 * kReadsPerThread);
  EXPECT_EQ(failures.load(), 0u);
  // Every read was a snapshot hit: the service lock was never taken and
  // no rider read reached the slow path.
  EXPECT_EQ(hits.load(), reads.load());
  EXPECT_EQ(f.server.metrics_snapshot().counter("http.read_slow_path"), 0u);
}

}  // namespace
}  // namespace wiloc::net
