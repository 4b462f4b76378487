// wilocator_sim — end-to-end simulation driver.
//
// Runs the full WiLocator pipeline on the synthetic corridor with
// everything configurable from the command line, and writes CSV
// artifacts (trajectories per Definition 6, prediction samples, the
// traffic map) for downstream analysis.
//
// Usage:
//   wilocator_sim [--days N] [--test-day D] [--density APS_PER_KM]
//                 [--seed S] [--scan-period SEC] [--order K]
//                 [--out DIR]
//
// Example:
//   wilocator_sim --days 5 --density 18 --out /tmp/wiloc

#include <filesystem>
#include <fstream>
#include <set>
#include <iostream>
#include <string>

#include "core/wilocator.hpp"
#include "sim/city.hpp"
#include "sim/crowd.hpp"
#include "sim/fleet.hpp"
#include "util/table.hpp"

namespace {

using namespace wiloc;

struct Options {
  int history_days = 3;
  int test_day = 5;
  double density = 24.0;
  std::uint64_t seed = 2016;
  double scan_period = 10.0;
  std::size_t order = 2;
  std::string out_dir = "wilocator_out";
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--days N] [--test-day D] [--density APS_PER_KM]"
               " [--seed S] [--scan-period SEC] [--order K] [--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--days") {
        opts.history_days = std::stoi(next());
      } else if (arg == "--test-day") {
        opts.test_day = std::stoi(next());
      } else if (arg == "--density") {
        opts.density = std::stod(next());
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
      } else if (arg == "--scan-period") {
        opts.scan_period = std::stod(next());
      } else if (arg == "--order") {
        opts.order = static_cast<std::size_t>(std::stoul(next()));
      } else if (arg == "--out") {
        opts.out_dir = next();
      } else {
        usage_and_exit(argv[0]);
      }
    } catch (const std::exception&) {
      usage_and_exit(argv[0]);
    }
  }
  if (opts.history_days < 1 || opts.test_day <= opts.history_days ||
      opts.density <= 0.0 || opts.scan_period <= 0.0 || opts.order < 1)
    usage_and_exit(argv[0]);
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  std::filesystem::create_directories(opts.out_dir);

  sim::CityParams city_params;
  city_params.ap_density_per_km = opts.density;
  city_params.seed = opts.seed;
  const sim::City city = sim::build_paper_city(city_params);
  const sim::TrafficModel traffic(opts.seed + 1);
  const sim::FleetPlan plan = sim::default_fleet_plan(city);

  std::cout << "city: " << city.network->edge_count() << " segments, "
            << city.aps.count() << " APs; training "
            << opts.history_days << " day(s)..." << std::endl;

  core::ServerConfig config;
  config.svd.order = opts.order;
  core::WiLocatorServer server(city.route_pointers(), city.ap_snapshot(),
                               *city.rf_model,
                               DaySlots::paper_five_slots(), config);
  Rng rng(opts.seed + 2);
  {
    const auto history = sim::simulate_service_days(
        city, traffic, plan, 0, opts.history_days, rng);
    for (const auto& trip : history) {
      const auto& route = city.routes[trip.route.index()];
      for (const auto& seg : trip.segments)
        if (seg.travel_time() > 0.0)
          server.load_history({route.edges()[seg.edge_index], trip.route,
                               seg.exit, seg.travel_time()});
    }
    server.finalize_history();
  }

  std::cout << "replaying test day " << opts.test_day << " live..."
            << std::endl;
  std::uint32_t next_id = 0;
  auto records = sim::simulate_service_day(city, traffic, plan,
                                           opts.test_day, rng, &next_id);
  const rf::Scanner scanner;
  sim::CrowdParams crowd;
  crowd.scan_period_s = opts.scan_period;

  const geo::LatLonAnchor anchor({49.263, -123.138});
  std::ofstream predictions(opts.out_dir + "/predictions.csv");
  predictions << "route,trip,query_tod,stop,predicted_s,actual_s,error_s\n";
  RunningStats position_error;
  RunningStats prediction_error;
  std::set<std::string> trajectory_written;

  for (const auto& trip : records) {
    const auto& route = city.routes[trip.route.index()];
    const auto reports = sim::sense_trip(trip, route, city.aps,
                                         *city.rf_model, scanner, rng,
                                         crowd);
    server.begin_trip(trip.id, trip.route);
    for (const auto& report : reports) {
      const auto fix = server.ingest(trip.id, report.scan);
      if (fix.has_value())
        position_error.add(
            std::abs(fix->route_offset - trip.offset_at(fix->time)));
    }
    // Prediction samples at each 3rd stop departure.
    for (std::size_t s = 0; s + 1 < trip.stops.size(); s += 3) {
      const auto& st = trip.stops[s];
      for (std::size_t target = st.stop_index + 2;
           target < route.stop_count(); target += 4) {
        const SimTime eta = server.predictor().predict_arrival(
            route, route.stop_offset(st.stop_index), st.depart, target);
        const SimTime truth = trip.arrival_at_stop(target);
        prediction_error.add(std::abs(eta - truth));
        predictions << route.name() << ',' << trip.id.value() << ','
                    << format_tod(time_of_day(st.depart)) << ',' << target
                    << ',' << eta - st.depart << ',' << truth - st.depart
                    << ',' << std::abs(eta - truth) << '\n';
      }
    }
    // Trajectory CSV (Definition 6) for the first trip of each route.
    if (trajectory_written.insert(route.name()).second) {
      std::ofstream traj(opts.out_dir + "/trajectory_" + route.name() +
                         ".csv");
      const core::FixLog& fixes = server.tracker(trip.id).fixes();
      core::write_trajectory_csv(
          traj, core::to_geo_trajectory({fixes.begin(), fixes.end()}, route,
                                        anchor));
    }
    server.end_trip(trip.id);
  }

  // Traffic map snapshot at the PM rush.
  {
    std::ofstream map_csv(opts.out_dir + "/traffic_map.csv");
    map_csv << "edge,state,z_score,recent_count\n";
    const auto map =
        server.traffic_map(at_day_time(opts.test_day, hms(18, 30)));
    for (const auto& [edge, seg] : map.segments) {
      map_csv << edge.value() << ',' << core::to_string(seg.state) << ','
              << seg.z_score << ',' << seg.recent_count << '\n';
    }
  }

  std::cout << "tracked " << records.size() << " trips: mean position "
            << "error " << position_error.mean() << " m ("
            << position_error.count() << " fixes); mean arrival "
            << "prediction error " << prediction_error.mean() << " s ("
            << prediction_error.count() << " samples)\n"
            << "artifacts in " << opts.out_dir << "/\n";
  return 0;
}
