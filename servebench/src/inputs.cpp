#include "inputs.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "harness.hpp"
#include "sim/fleet.hpp"
#include "sim/traffic_model.hpp"
#include "util/binio.hpp"

namespace servebench {

namespace {

using namespace wiloc;

// Bump when the file layout changes. Changes to the simulator show in
// the fingerprint instead (see simulator_fingerprint).
constexpr std::uint64_t kMagic = 0x57'4c'53'42'00'00'00'03ULL;  // "WLSB" v3

void put_size(BinWriter& w, std::size_t n) {
  w.put_u64(static_cast<std::uint64_t>(n));
}

std::size_t get_size(BinReader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining()) throw DecodeError("servebench cache: bad count");
  return static_cast<std::size_t>(n);
}

/// FNV-1a over what the cached inputs depend on in src/sim: the AP
/// layout, the routes and their stops, the RF field along every route,
/// the fleet plan, and one probe trip per route simulated and sensed with
/// a fixed seed (which covers the traffic, trip and scan models). A cache
/// written for another fingerprint is regenerated.
std::uint64_t simulator_fingerprint(const sim::City& city) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  const auto num = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  const auto aps = city.ap_snapshot();
  for (const auto& ap : aps) {
    mix(ap.id.value());
    num(ap.position.x);
    num(ap.position.y);
    num(ap.tx_power_dbm);
    num(ap.path_loss_exponent);
  }
  for (const auto& route : city.routes) {
    for (const auto edge : route.edges()) mix(edge.value());
    for (std::size_t i = 0; i < route.stop_count(); ++i)
      num(route.stop_offset(i));
    for (double x = 0.0; x < route.length(); x += 50.0)
      for (std::size_t a = 0; a < aps.size(); a += 16)
        num(city.rf_model->mean_rss(aps[a], route.point_at(x)));
  }
  sim::FleetPlan plan = sim::default_fleet_plan(city);
  for (auto& sp : plan.per_route) {
    num(sp.first_departure_tod);
    num(sp.last_departure_tod);
    num(sp.headway_s);
    sp.last_departure_tod = sp.first_departure_tod;  // one trip per route
  }
  const sim::TrafficModel traffic(2016);
  Rng rng(1);
  std::uint32_t next_id = 1;
  const rf::Scanner scanner;
  for (const auto& record : sim::simulate_service_day(
           city, traffic, plan, 0, rng, &next_id, /*keep_trajectories=*/true)) {
    for (const auto& seg : record.segments) num(seg.exit);
    for (const auto& report :
         sim::sense_trip(record, city.routes[record.route.index()], city.aps,
                         *city.rf_model, scanner, rng)) {
      num(report.scan.time);
      for (const auto& rd : report.scan.readings) {
        mix(rd.ap.value());
        num(rd.rssi_dbm);
      }
    }
  }
  return h;
}

void encode(BinWriter& w, const Inputs& in, std::uint64_t fingerprint) {
  w.put_u64(kMagic);
  w.put_u64(fingerprint);
  w.put_u64(in.seed);
  put_size(w, in.history.size());
  for (const auto& obs : in.history) core::encode_observation(w, obs);
  put_size(w, in.live.size());
  for (const LiveTrip& trip : in.live) {
    const sim::TripRecord& rec = trip.record;
    w.put_u32(rec.id.value());
    w.put_u32(rec.route.value());
    w.put_f64(rec.start_time);
    w.put_f64(rec.end_time);
    put_size(w, rec.trajectory.size());
    for (const auto& s : rec.trajectory) {
      w.put_f64(s.time);
      w.put_f64(s.route_offset);
    }
    put_size(w, rec.segments.size());
    for (const auto& s : rec.segments) {
      put_size(w, s.edge_index);
      w.put_f64(s.enter);
      w.put_f64(s.exit);
    }
    put_size(w, rec.stops.size());
    for (const auto& s : rec.stops) {
      put_size(w, s.stop_index);
      w.put_f64(s.arrive);
      w.put_f64(s.depart);
    }
    put_size(w, trip.reports.size());
    for (const auto& rep : trip.reports) {
      w.put_f64(rep.scan.time);
      put_size(w, rep.scan.readings.size());
      for (const auto& rd : rep.scan.readings) {
        w.put_u32(rd.ap.value());
        w.put_f64(rd.rssi_dbm);
      }
    }
  }
}

void decode(BinReader& r, Inputs& in, std::uint64_t fingerprint) {
  if (r.get_u64() != kMagic) throw DecodeError("servebench cache: version");
  if (r.get_u64() != fingerprint)
    throw DecodeError("servebench cache: simulator changed");
  if (r.get_u64() != in.seed) throw DecodeError("servebench cache: seed");
  in.history.resize(get_size(r));
  for (auto& obs : in.history) obs = core::decode_observation(r);
  in.live.resize(get_size(r));
  for (LiveTrip& trip : in.live) {
    sim::TripRecord& rec = trip.record;
    rec.id = roadnet::TripId(r.get_u32());
    rec.route = roadnet::RouteId(r.get_u32());
    rec.start_time = r.get_f64();
    rec.end_time = r.get_f64();
    rec.trajectory.resize(get_size(r));
    for (auto& s : rec.trajectory) {
      s.time = r.get_f64();
      s.route_offset = r.get_f64();
    }
    rec.segments.resize(get_size(r));
    for (auto& s : rec.segments) {
      s.edge_index = get_size(r);
      s.enter = r.get_f64();
      s.exit = r.get_f64();
    }
    rec.stops.resize(get_size(r));
    for (auto& s : rec.stops) {
      s.stop_index = get_size(r);
      s.arrive = r.get_f64();
      s.depart = r.get_f64();
    }
    trip.reports.resize(get_size(r));
    for (auto& rep : trip.reports) {
      rep.trip = rec.id;
      rep.route = rec.route;
      rep.scan.time = r.get_f64();
      rep.scan.readings.resize(get_size(r));
      for (auto& rd : rep.scan.readings) {
        rd.ap = rf::ApId(r.get_u32());
        rd.rssi_dbm = r.get_f64();
      }
    }
  }
  if (!r.done()) throw DecodeError("servebench cache: trailing bytes");
}

void generate(Inputs& in) {
  const sim::TrafficModel traffic(2016);
  Rng rng(in.seed);

  const sim::FleetPlan full_day = sim::default_fleet_plan(in.city);
  for (const auto& trip :
       sim::simulate_service_days(in.city, traffic, full_day, 0, kHistoryDays,
                                  rng, /*keep_trajectories=*/false)) {
    const auto& route = in.city.routes[trip.route.index()];
    for (const auto& seg : trip.segments) {
      if (seg.travel_time() <= 0.0) continue;
      in.history.push_back({route.edges()[seg.edge_index], trip.route,
                            seg.exit, seg.travel_time()});
    }
  }

  sim::FleetPlan window = full_day;
  for (auto& sp : window.per_route) {
    sp.first_departure_tod = hms(7, 0);
    sp.last_departure_tod = hms(9, 0);
  }
  std::uint32_t next_id = kFirstTripId;
  auto records = sim::simulate_service_day(in.city, traffic, window,
                                           kHistoryDays, rng, &next_id,
                                           /*keep_trajectories=*/true);
  const rf::Scanner scanner;
  for (auto& record : records) {
    const auto& route = in.city.routes[record.route.index()];
    auto reports = sim::sense_trip(record, route, in.city.aps,
                                   *in.city.rf_model, scanner, rng);
    in.live.push_back({std::move(record), std::move(reports)});
  }
}

}  // namespace

Inputs load_inputs(std::uint64_t seed, const std::string& cache_dir) {
  Inputs in;
  in.seed = seed;
  in.city = sim::build_paper_city();
  const std::uint64_t fingerprint = simulator_fingerprint(in.city);
  const std::filesystem::path path =
      std::filesystem::path(cache_dir) / ("seed-" + std::to_string(seed) +
                                          ".bin");
  {
    std::ifstream file(path, std::ios::binary);
    if (file) {
      const std::string bytes((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
      try {
        BinReader r(std::as_bytes(std::span(bytes.data(), bytes.size())));
        decode(r, in, fingerprint);
        return in;
      } catch (const DecodeError&) {
        in.history.clear();
        in.live.clear();
      }
    }
  }
  const double t0 = now_s();
  generate(in);
  in.generate_s = now_s() - t0;

  BinWriter w;
  encode(w, in, fingerprint);
  std::filesystem::create_directories(cache_dir);
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const auto bytes = w.bytes();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return in;  // an unwritable cache only costs the next run
  }
  std::filesystem::rename(tmp, path);
  return in;
}

}  // namespace servebench
