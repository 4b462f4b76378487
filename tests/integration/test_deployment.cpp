// Deployment fidelity: the pieces a real installation (no propagation
// model, no ground truth) actually runs.
//
// 1. Crowd-survey server: the positioning index is built from rider
//    scans (SurveyBuilder), injected into the server, and drives the
//    full tracking/prediction pipeline.
// 2. Self-training: the predictor's history comes from *tracked* segment
//    observations (with their boundary-interpolation noise), not the
//    simulator's ground truth — and predictions stay close to the
//    ground-truth-trained ones.
// 3. The paper-city round-trips through the text serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "../helpers.hpp"
#include "core/server.hpp"
#include "roadnet/io.hpp"
#include "roadnet/overlap.hpp"
#include "sim/city.hpp"
#include "sim/crowd.hpp"
#include "svd/survey.hpp"

namespace wiloc {
namespace {

using core::WiLocatorServer;
using roadnet::TripId;

TEST(Deployment, ServerRunsOnCrowdSurveyIndexes) {
  testing::MiniCity city;
  const sim::TrafficModel traffic(515);
  const rf::Scanner scanner;

  // Survey both routes from position-labelled crowd scans.
  std::vector<WiLocatorServer::RouteIndex> bindings;
  Rng survey_rng(1);
  for (const auto& route : city.routes) {
    svd::SurveyBuilder builder(route);
    for (int pass = 0; pass < 4; ++pass) {
      for (double offset = 3.0; offset <= route.length(); offset += 10.0) {
        builder.add_scan(
            offset, scanner.scan(city.aps, city.model,
                                 route.point_at(offset), 0.0, survey_rng));
      }
    }
    bindings.push_back({&route, builder.build()});
  }
  WiLocatorServer server(std::move(bindings), DaySlots::paper_five_slots());
  server.finalize_history();

  // Track a live trip end to end on the survey-built diagram.
  Rng rng(2);
  const auto trip = sim::simulate_trip(TripId(1), city.route_a(),
                                       city.profiles[0], traffic,
                                       at_day_time(0, hms(10)), rng);
  const auto reports = sim::sense_trip(trip, city.route_a(), city.aps,
                                       city.model, scanner, rng);
  server.begin_trip(TripId(1), city.route_a().id());
  RunningStats error;
  for (const auto& report : reports) {
    const auto fix = server.ingest(TripId(1), report.scan);
    if (!fix.has_value()) continue;
    error.add(std::abs(fix->route_offset - trip.offset_at(fix->time)));
  }
  ASSERT_GT(error.count(), 20u);
  EXPECT_LT(error.mean(), 35.0);
  // Segment observations flowed into the recent store too.
  bool any_recent = false;
  for (const auto edge : city.route_a().edges())
    if (!server.store().recent(edge, trip.end_time, 3600.0, 8).empty())
      any_recent = true;
  EXPECT_TRUE(any_recent);
}

TEST(Deployment, SelfTrainedPredictionsMatchGroundTruthTraining) {
  testing::MiniCity city;
  const sim::TrafficModel traffic(525);
  const rf::Scanner scanner;
  const svd::RouteSvd index(city.route_a(), city.ap_snapshot(), city.model,
                            {});
  const core::SvdPositioner positioner(index);

  // Run many trips; collect BOTH ground-truth and tracked segment times.
  core::TravelTimeStore truth_store(DaySlots::paper_five_slots());
  core::TravelTimeStore tracked_store(DaySlots::paper_five_slots());
  Rng rng(3);
  for (int day = 0; day < 3; ++day) {
    for (double tod = hms(7); tod < hms(19); tod += 1500.0) {
      const auto trip = sim::simulate_trip(
          TripId(0), city.route_a(), city.profiles[0], traffic,
          at_day_time(day, tod), rng);
      for (const auto& seg : trip.segments) {
        if (seg.travel_time() <= 0.0) continue;
        truth_store.add_history({city.route_a().edges()[seg.edge_index],
                                 city.route_a().id(), seg.exit,
                                 seg.travel_time()});
      }
      const auto reports = sim::sense_trip(trip, city.route_a(), city.aps,
                                           city.model, scanner, rng);
      core::BusTracker tracker(city.route_a(), positioner);
      for (const auto& report : reports) tracker.ingest(report.scan);
      for (const auto& obs : tracker.drain_segments())
        tracked_store.add_history(obs);
    }
  }
  truth_store.finalize_history();
  tracked_store.finalize_history();

  // Per-(edge, slot) means agree within tracking noise; full-route
  // predictions agree within a small fraction.
  const core::ArrivalPredictor p_truth(truth_store);
  const core::ArrivalPredictor p_tracked(tracked_store);
  const SimTime when = at_day_time(10, hms(12));
  const double t_truth = p_truth.predict_travel_time(
      city.route_a(), 0.0, city.route_a().length(), when);
  const double t_tracked = p_tracked.predict_travel_time(
      city.route_a(), 0.0, city.route_a().length(), when);
  EXPECT_NEAR(t_tracked, t_truth, t_truth * 0.12);

  for (std::size_t e = 0; e < city.route_a().edges().size(); ++e) {
    const auto edge = city.route_a().edges()[e];
    const std::size_t slot = truth_store.slots().slot_of_tod(hms(12));
    const auto m_truth =
        truth_store.historical_mean(edge, city.route_a().id(), slot);
    const auto m_tracked =
        tracked_store.historical_mean(edge, city.route_a().id(), slot);
    if (!m_truth.has_value() || !m_tracked.has_value()) continue;
    EXPECT_NEAR(*m_tracked, *m_truth, std::max(20.0, *m_truth * 0.3));
  }
}

TEST(Deployment, PaperCityRoundTripsThroughSerialization) {
  const sim::City city = sim::build_paper_city();
  std::stringstream stream;
  roadnet::write_city(stream, *city.network, city.route_pointers());

  const roadnet::CityDocument doc = roadnet::read_city(stream);
  ASSERT_EQ(doc.network->node_count(), city.network->node_count());
  ASSERT_EQ(doc.network->edge_count(), city.network->edge_count());
  ASSERT_EQ(doc.routes.size(), city.routes.size());
  for (std::size_t r = 0; r < city.routes.size(); ++r) {
    EXPECT_EQ(doc.routes[r].name(), city.routes[r].name());
    EXPECT_NEAR(doc.routes[r].length(), city.routes[r].length(), 1e-6);
    EXPECT_EQ(doc.routes[r].stop_count(), city.routes[r].stop_count());
  }
  // Overlap structure (Table I) survives the round trip.
  const roadnet::OverlapIndex before(city.route_pointers());
  std::vector<const roadnet::BusRoute*> reloaded;
  for (const auto& route : doc.routes) reloaded.push_back(&route);
  const roadnet::OverlapIndex after(reloaded);
  for (const auto& route : city.routes) {
    EXPECT_NEAR(after.overlapped_length(route.id()),
                before.overlapped_length(route.id()), 1e-6);
  }
}

}  // namespace
}  // namespace wiloc
