// Shared test fixtures: a small two-route scenario that exercises the
// full pipeline cheaply (used by the core/baseline/integration suites),
// and a self-removing scratch directory.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "rf/registry.hpp"
#include "roadnet/route.hpp"
#include "sim/bus_trip.hpp"
#include "sim/crowd.hpp"

namespace wiloc::testing {

/// A 2 km straight main street shared by two routes; route "A" covers
/// all of it, route "B" covers the middle two edges plus a branch.
/// APs every ~80 m on alternating sides; deterministic.
struct MiniCity {
  std::unique_ptr<roadnet::RoadNetwork> net =
      std::make_unique<roadnet::RoadNetwork>();
  std::vector<roadnet::BusRoute> routes;
  std::vector<sim::RouteProfile> profiles;
  rf::ApRegistry aps;
  rf::LogDistanceModel model;

  MiniCity()
      : model([] {
          rf::LogDistanceParams p;
          p.fading_sigma_db = 3.0;
          p.shadowing_sigma_db = 4.0;
          return p;
        }()) {
    using roadnet::EdgeId;
    using roadnet::NodeId;
    using roadnet::Stop;
    std::vector<NodeId> main;
    for (int i = 0; i <= 5; ++i)
      main.push_back(net->add_node({400.0 * i, 0}));
    std::vector<EdgeId> main_edges;
    for (int i = 0; i < 5; ++i)
      main_edges.push_back(
          net->add_straight_edge(main[static_cast<std::size_t>(i)],
                                 main[static_cast<std::size_t>(i) + 1],
                                 12.5));
    const NodeId branch_end = net->add_node({1600, 600});
    const EdgeId branch =
        net->add_straight_edge(main[4], branch_end, 12.5);

    routes.emplace_back(
        roadnet::RouteId(0), "A", *net, main_edges,
        std::vector<Stop>{{"a0", 0.0}, {"a1", 700.0}, {"a2", 1400.0},
                          {"a3", 2000.0}});
    routes.emplace_back(
        roadnet::RouteId(1), "B", *net,
        std::vector<EdgeId>{main_edges[1], main_edges[2], main_edges[3],
                            branch},
        std::vector<Stop>{{"b0", 0.0}, {"b1", 900.0}, {"b2", 1800.0}});
    profiles.push_back({0.8, 15.0, 4.0, 0.3, 20.0});
    profiles.push_back({0.7, 18.0, 5.0, 0.35, 22.0});

    Rng rng(77);
    for (int i = 0; i < 32; ++i) {
      const double x = 40.0 + 80.0 * i;
      if (x > 2560.0) break;
      const double y = (i % 2 == 0) ? 22.0 : -22.0;
      aps.add({x, y}, rng.uniform(-36.0, -28.0), rng.uniform(2.7, 3.3));
    }
    // A few APs along B's branch.
    for (int i = 1; i <= 6; ++i)
      aps.add({1600.0 + ((i % 2) ? 20.0 : -20.0), 100.0 * i},
              rng.uniform(-36.0, -28.0), rng.uniform(2.7, 3.3));
  }

  std::vector<rf::AccessPoint> ap_snapshot(SimTime t = 0.0) const {
    std::vector<rf::AccessPoint> out;
    for (const auto& ap : aps.aps())
      if (aps.is_active(ap.id, t)) out.push_back(ap);
    return out;
  }

  const roadnet::BusRoute& route_a() const { return routes[0]; }
  const roadnet::BusRoute& route_b() const { return routes[1]; }
};

/// A fresh directory under the system temp dir, unique per process and
/// per instance, removed with everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix)
      : dir_(std::filesystem::temp_directory_path() /
             (prefix + "_" + std::to_string(counter_++) + "_" +
              std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// The directory itself, or the entry `name` inside it.
  std::string path(const std::string& name = "") const {
    return name.empty() ? dir_.string() : (dir_ / name).string();
  }

  /// The subdirectory `name`, created if missing.
  std::string sub(const std::string& name) const {
    std::filesystem::create_directories(dir_ / name);
    return path(name);
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

}  // namespace wiloc::testing
