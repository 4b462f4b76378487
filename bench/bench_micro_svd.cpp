// Microbenchmarks (google-benchmark): SVD construction, the
// rank-consistency kernel, `RouteSvd::locate` on its exact-signature and
// degraded paths, the full noisy-scan positioner, and one trip through
// a BusTracker (positioner, filter and fix append) — the back-end
// server's hot paths. servebench's `svd.locate_ns` times
// `RouteSvd::locate` itself.

#include <benchmark/benchmark.h>

#include <span>

#include "core/positioner.hpp"
#include "core/tracker.hpp"
#include "sim/city.hpp"
#include "sim/crowd.hpp"
#include "sim/traffic_model.hpp"
#include "svd/grid_svd.hpp"
#include "svd/route_svd.hpp"
#include "svd/signature.hpp"

namespace {

using namespace wiloc;

const sim::City& shared_city() {
  static const sim::City city = sim::build_paper_city();
  return city;
}

void BM_RouteSvdConstruction(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  svd::RouteSvdParams params;
  params.order = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model,
                              params);
    benchmark::DoNotOptimize(index.interval_count());
  }
  const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model,
                            params);
  state.counters["tiles"] = static_cast<double>(index.interval_count());
  state.counters["bytes_per_tile"] =
      static_cast<double>(index.heap_bytes()) /
      static_cast<double>(index.interval_count());
}
BENCHMARK(BM_RouteSvdConstruction)->Arg(1)->Arg(2)->Arg(4);

void BM_GridSvdConstruction(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  geo::Aabb ribbon;
  for (double offset = 0.0; offset <= route.length(); offset += 200.0)
    ribbon.expand(route.point_at(offset));
  ribbon.inflate(100.0);
  const svd::GridSpec spec{ribbon, static_cast<double>(state.range(0))};
  for (auto _ : state) {
    const svd::SvdGrid grid(city.ap_snapshot(), *city.rf_model, spec);
    benchmark::DoNotOptimize(grid.region_count());
  }
}
BENCHMARK(BM_GridSvdConstruction)->Arg(8)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The rank_consistency inner loop in isolation: score every stored
// signature against one real noisy full-scan ranking, exactly what the
// posting-list fallback does per candidate (production observations are
// the scan's whole heard-AP list, typically 10-40 APs). Scalar vs
// dispatched rows give the before/after ns/op for the SIMD
// position-lookup kernel.
template <double (*Score)(const std::vector<rf::ApId>&,
                          std::span<const rf::ApId>)>
void rank_consistency_bench(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  svd::RouteSvdParams params;
  params.order = 3;
  const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model,
                            params);

  // Full heard-AP rankings from a simulated trip's noisy scans.
  const sim::TrafficModel traffic(1);
  Rng rng(3);
  const auto trip =
      sim::simulate_trip(roadnet::TripId(0), route,
                         city.profile_of(route.id()), traffic,
                         at_day_time(0, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, route, city.aps,
                                       *city.rf_model, scanner, rng);
  std::vector<std::vector<rf::ApId>> observations;
  double mean_len = 0.0;
  for (const auto& report : reports) {
    auto rankings = svd::expand_tied_rankings(report.scan, 0, 1);
    if (rankings.empty() || rankings.front().empty()) continue;
    mean_len += static_cast<double>(rankings.front().size());
    observations.push_back(std::move(rankings.front()));
  }
  mean_len /= static_cast<double>(observations.size());

  std::size_t i = 0;
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& interval : index.intervals())
      sum += Score(observations[i], interval.signature);
    benchmark::DoNotOptimize(sum);
    i = (i + 1) % observations.size();
  }
  state.SetLabel(svd::rank_consistency_kernel());
  state.counters["signatures"] =
      static_cast<double>(index.intervals().size());
  state.counters["observed_aps"] = mean_len;
}

void BM_RankConsistencyScalar(benchmark::State& state) {
  rank_consistency_bench<&svd::rank_consistency_scalar>(state);
}
BENCHMARK(BM_RankConsistencyScalar);

void BM_RankConsistencySimd(benchmark::State& state) {
  rank_consistency_bench<&svd::rank_consistency>(state);
}
BENCHMARK(BM_RankConsistencySimd);

// Dense-corridor variant: rankings of Arg(0) APs drawn from the route's
// construction universe (urban deployments hear tens of APs per scan).
// This is where the vector lanes engage; the sparse variant above mostly
// routes through the adaptive scalar path.
template <double (*Score)(const std::vector<rf::ApId>&,
                          std::span<const rf::ApId>)>
void rank_consistency_dense_bench(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  svd::RouteSvdParams params;
  params.order = 3;
  const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model,
                            params);

  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<rf::ApId> universe;
  for (const auto& ap : city.aps.aps()) universe.push_back(ap.id);
  Rng rng(11);
  std::vector<std::vector<rf::ApId>> observations;
  for (int k = 0; k < 64; ++k) {
    rng.shuffle(universe);
    observations.emplace_back(
        universe.begin(),
        universe.begin() + static_cast<std::ptrdiff_t>(
                               std::min(len, universe.size())));
  }

  std::size_t i = 0;
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& interval : index.intervals())
      sum += Score(observations[i], interval.signature);
    benchmark::DoNotOptimize(sum);
    i = (i + 1) % observations.size();
  }
  state.SetLabel(svd::rank_consistency_kernel());
  state.counters["signatures"] =
      static_cast<double>(index.intervals().size());
}

void BM_RankConsistencyDenseScalar(benchmark::State& state) {
  rank_consistency_dense_bench<&svd::rank_consistency_scalar>(state);
}
BENCHMARK(BM_RankConsistencyDenseScalar)->Arg(16)->Arg(32);

void BM_RankConsistencyDenseSimd(benchmark::State& state) {
  rank_consistency_dense_bench<&svd::rank_consistency>(state);
}
BENCHMARK(BM_RankConsistencyDenseSimd)->Arg(16)->Arg(32);

/// Heard-AP rankings of a simulated trip's noisy scans on `route`, split
/// by the path `index.locate` takes for them; consecutive repeats are
/// dropped so the one-entry memo never replays.
struct LocateCorpus {
  std::vector<std::vector<rf::ApId>> fast;
  std::vector<std::vector<rf::ApId>> degraded;
};

LocateCorpus locate_corpus(svd::RouteSvd& index,
                           const roadnet::BusRoute& route) {
  const sim::City& city = shared_city();
  const sim::TrafficModel traffic(1);
  Rng rng(3);
  const auto trip =
      sim::simulate_trip(roadnet::TripId(0), route,
                         city.profile_of(route.id()), traffic,
                         at_day_time(0, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, route, city.aps,
                                       *city.rf_model, scanner, rng);
  obs::Counter fast_hits;
  index.set_metrics({.fast_path_hits = &fast_hits});
  LocateCorpus corpus;
  for (const auto& report : reports) {
    auto rankings = svd::expand_tied_rankings(report.scan, 0, 1);
    if (rankings.empty() || rankings.front().empty()) continue;
    const std::uint64_t before = fast_hits.value();
    if (index.locate(rankings.front()).empty()) continue;
    auto& side = fast_hits.value() > before ? corpus.fast : corpus.degraded;
    if (side.empty() || side.back() != rankings.front())
      side.push_back(std::move(rankings.front()));
  }
  index.set_metrics({});
  return corpus;
}

template <bool kFast>
void locate_bench(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model, {});
  const LocateCorpus corpus = locate_corpus(index, route);
  const auto& rankings = kFast ? corpus.fast : corpus.degraded;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.locate(rankings[i]));
    i = (i + 1) % rankings.size();
  }
  state.counters["rankings"] = static_cast<double>(rankings.size());
}

// Exact-signature hits: the padded top-k compared with the rank rows on
// the strongest AP's posting list.
void BM_RouteSvdLocateFast(benchmark::State& state) {
  locate_bench<true>(state);
}
BENCHMARK(BM_RouteSvdLocateFast);

// Top-k misses: the posting-list union scored with rank_consistency.
void BM_RouteSvdLocateDegraded(benchmark::State& state) {
  locate_bench<false>(state);
}
BENCHMARK(BM_RouteSvdLocateDegraded);

void BM_LocateNoisyScan(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model, {});
  const core::SvdPositioner positioner(index);
  // Real noisy scans from a simulated trip.
  const sim::TrafficModel traffic(1);
  Rng rng(3);
  const auto trip =
      sim::simulate_trip(roadnet::TripId(0), route,
                         city.profile_of(route.id()), traffic,
                         at_day_time(0, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, route, city.aps,
                                       *city.rf_model, scanner, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(positioner.locate(reports[i].scan));
    i = (i + 1) % reports.size();
  }
}
BENCHMARK(BM_LocateNoisyScan);

// One paper-city trip per iteration through a fresh tracker: locate,
// mobility filter, boundary crossings and the fix-log append, per scan.
void BM_TrackerIngestTrip(benchmark::State& state) {
  const sim::City& city = shared_city();
  const auto& route = city.route_by_name("Rapid");
  const svd::RouteSvd index(route, city.ap_snapshot(), *city.rf_model, {});
  const core::SvdPositioner positioner(index);
  const sim::TrafficModel traffic(1);
  Rng rng(3);
  const auto trip =
      sim::simulate_trip(roadnet::TripId(0), route,
                         city.profile_of(route.id()), traffic,
                         at_day_time(0, hms(9)), rng);
  const rf::Scanner scanner;
  const auto reports = sim::sense_trip(trip, route, city.aps,
                                       *city.rf_model, scanner, rng);
  std::size_t fixes = 0;
  for (auto _ : state) {
    core::BusTracker tracker(route, positioner);
    for (const auto& report : reports) tracker.ingest(report.scan);
    fixes = tracker.fixes().size();
    benchmark::DoNotOptimize(tracker.drain_segments());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reports.size()));
  state.counters["scans"] = static_cast<double>(reports.size());
  state.counters["fixes"] = static_cast<double>(fixes);
}
BENCHMARK(BM_TrackerIngestTrip);

}  // namespace

BENCHMARK_MAIN();
