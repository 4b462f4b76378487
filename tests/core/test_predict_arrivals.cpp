// predict_arrivals (Eq. 9 for every stop in one walk) against the
// per-stop chain it replaces: bit-for-bit equal at every 1 m offset of
// every paper-city route, before the start and past the end, for
// horizons that cross slot boundaries and the midnight-wrapping slot,
// over a store with recent corrections and one with cold edges.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/travel_time.hpp"
#include "sim/city.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;

// [22:00, 06:00) wraps across midnight.
DaySlots wrapped_slots() {
  return DaySlots::from_boundaries_wrapped(
      {hms(6), hms(8), hms(10), hms(18), hms(19), hms(22)});
}

// Horizons from each of these cross a slot boundary within minutes,
// except midday, which stays inside one slot; 23:48 also crosses
// midnight inside the wrapping slot.
std::vector<SimTime> query_times() {
  std::vector<SimTime> times;
  for (const double tod :
       {hms(12), hms(7, 52), hms(21, 50), hms(23, 48), hms(5, 51)})
    times.push_back(at_day_time(20, tod));
  return times;
}

double free_flow_s(const roadnet::BusRoute& route, std::size_t i) {
  const roadnet::RoadSegment& seg = route.network().edge(route.edges()[i]);
  return seg.length() / (0.6 * seg.speed_limit());
}

// History on every edge in every slot, plus recents before each query
// time on every other edge, so most estimates carry an Eq.-8 correction.
std::unique_ptr<TravelTimeStore> warm_store(
    const std::vector<roadnet::BusRoute>& routes) {
  auto store = std::make_unique<TravelTimeStore>(wrapped_slots());
  const int hours[] = {3, 7, 9, 12, 18, 20, 23};
  for (const auto& route : routes)
    for (std::size_t i = 0; i < route.edges().size(); ++i)
      for (int day = 0; day < 6; ++day)
        for (std::size_t k = 0; k < std::size(hours); ++k) {
          const SimTime exit = at_day_time(day, hms(hours[k]));
          const double took =
              free_flow_s(route, i) * (1.0 + 0.15 * ((i + day + k) % 4));
          store->add_history({route.edges()[i], route.id(), exit, took});
        }
  store->finalize_history();
  for (const SimTime now : query_times())
    for (const auto& route : routes)
      for (std::size_t i = 0; i < route.edges().size(); i += 2) {
        const SimTime exit = now - 60.0 * static_cast<double>(1 + i % 7);
        const double took = free_flow_s(route, i) * (i % 3 == 0 ? 1.6 : 0.8);
        store->add_recent({route.edges()[i], route.id(), exit, took});
      }
  return store;
}

// History on two edges of three and only in two slots: the rest of the
// chain runs on the speed-limit fallback, mixed with history where a
// horizon crosses into a trained slot.
std::unique_ptr<TravelTimeStore> cold_store(
    const std::vector<roadnet::BusRoute>& routes) {
  auto store = std::make_unique<TravelTimeStore>(wrapped_slots());
  for (const auto& route : routes)
    for (std::size_t i = 0; i < route.edges().size(); ++i) {
      if (route.edges()[i].value() % 3 == 0) continue;
      const double took = free_flow_s(route, i) * 1.3;
      for (int day = 0; day < 4; ++day)
        for (const double tod : {hms(12), hms(23)})
          store->add_history(
              {route.edges()[i], route.id(), at_day_time(day, tod), took});
    }
  store->finalize_history();
  return store;
}

// Compares one offset; returns a description of the first differing
// stop, empty when every stop matches bit for bit.
std::string first_mismatch(const ArrivalPredictor& predictor,
                           const roadnet::BusRoute& route, double offset,
                           SimTime now) {
  const std::vector<SimTime> all =
      predictor.predict_arrivals(route, offset, now);
  if (all.size() != route.stop_count()) return "wrong stop count";
  for (std::size_t s = 0; s < all.size(); ++s) {
    const SimTime one = predictor.predict_arrival(route, offset, now, s);
    if (std::bit_cast<std::uint64_t>(one) !=
        std::bit_cast<std::uint64_t>(all[s])) {
      std::ostringstream out;
      out.precision(17);
      out << route.name() << " offset " << offset << " now " << now;
      out << " stop " << s << ": " << one << " vs walk " << all[s];
      return out.str();
    }
  }
  return {};
}

class PredictArrivalsParity : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    city_ = std::make_unique<sim::City>(sim::build_paper_city());
    warm_ = warm_store(city_->routes);
    cold_ = cold_store(city_->routes);
  }
  static void TearDownTestSuite() {
    warm_.reset();
    cold_.reset();
    city_.reset();
  }

  static inline std::unique_ptr<sim::City> city_;
  static inline std::unique_ptr<TravelTimeStore> warm_;
  static inline std::unique_ptr<TravelTimeStore> cold_;
};

TEST_P(PredictArrivalsParity, BitIdenticalToPerStopAtEveryMetre) {
  const roadnet::BusRoute& route = city_->routes.at(GetParam());
  const ArrivalPredictor warm(*warm_);
  const ArrivalPredictor cold(*cold_);
  std::vector<std::pair<const ArrivalPredictor*, SimTime>> cases;
  for (const SimTime now : query_times()) {
    cases.emplace_back(&warm, now);
    cases.emplace_back(&cold, now);
  }

  // Every metre once, cycling through the (store, now) cases, so each
  // case sees every tenth metre; then every case at each edge boundary
  // and each stop, the exact offsets where the walk hands over.
  std::size_t checked = 0;
  const auto check = [&](double offset, std::size_t c) {
    ++checked;
    const std::string bad =
        first_mismatch(*cases[c].first, route, offset, cases[c].second);
    ASSERT_TRUE(bad.empty()) << bad;
  };
  const int last_metre = static_cast<int>(std::ceil(route.length())) + 3;
  for (int m = -3; m <= last_metre; ++m) {
    const std::size_t c = static_cast<std::size_t>(m + 3) % cases.size();
    ASSERT_NO_FATAL_FAILURE(check(m, c));
  }
  std::vector<double> exact;
  for (std::size_t i = 0; i < route.edges().size(); ++i)
    exact.push_back(route.edge_start_offset(i));
  for (std::size_t s = 0; s < route.stop_count(); ++s)
    exact.push_back(route.stop_offset(s));
  for (const double offset : exact)
    for (std::size_t c = 0; c < cases.size(); ++c)
      ASSERT_NO_FATAL_FAILURE(check(offset, c));
  EXPECT_GT(checked, static_cast<std::size_t>(route.length()));
}

INSTANTIATE_TEST_SUITE_P(PaperCityRoutes, PredictArrivalsParity,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(PredictArrivals, StopsOnEdgeBoundariesAndRouteEnds) {
  // Three 1000 m edges; stops at the start, on both interior
  // boundaries and at the very end of the route.
  roadnet::RoadNetwork net;
  std::vector<roadnet::NodeId> nodes;
  for (const double x : {0.0, 1000.0, 2000.0, 3000.0})
    nodes.push_back(net.add_node({x, 0}));
  std::vector<EdgeId> edges;
  std::vector<roadnet::Stop> stops{{"s0", 0.0}};
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    edges.push_back(net.add_straight_edge(nodes[i - 1], nodes[i], 12.5));
    stops.push_back({"s" + std::to_string(i), 1000.0 * i});
  }
  std::vector<roadnet::BusRoute> routes;
  routes.emplace_back(RouteId(0), "boundaries", net, edges, stops);
  const roadnet::BusRoute& route = routes.front();
  const auto warm = warm_store(routes);
  const auto cold = cold_store(routes);

  std::vector<double> offsets;
  for (int m = -5; m <= 3005; ++m) offsets.push_back(m);
  for (const double edge_end : {1000.0, 2000.0, 3000.0}) {
    offsets.push_back(std::nextafter(edge_end, 0.0));
    offsets.push_back(std::nextafter(edge_end, 1e9));
  }
  for (const TravelTimeStore* store : {warm.get(), cold.get()}) {
    const ArrivalPredictor predictor(*store);
    for (const SimTime now : query_times())
      for (const double offset : offsets) {
        const std::string bad = first_mismatch(predictor, route, offset, now);
        ASSERT_TRUE(bad.empty()) << bad;
      }
  }

  // The behind-the-bus and clamped cases keep their exact values.
  const ArrivalPredictor predictor(*warm);
  const SimTime now = query_times().front();
  const auto at_start = predictor.predict_arrivals(route, -5.0, now);
  EXPECT_EQ(at_start[0], now + 0.0);  // stop 0 clamps onto the bus
  EXPECT_GT(at_start[1], now);
  const auto past_end = predictor.predict_arrivals(route, 3005.0, now);
  for (const SimTime t : past_end) EXPECT_EQ(t, now);
}

}  // namespace
}  // namespace wiloc::core
