#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "net/load_driver.hpp"
#include "net/service.hpp"

namespace servebench {

namespace {

using namespace wiloc;

/// Replayed rounds per component replay (round 1 shifts ids and times
/// like the serving run's second pass over the live window).
constexpr std::size_t kReplayRounds = 2;
/// Minimum wall time of each tight timing loop.
constexpr double kLoopS = 0.3;
/// Keeps timed results observable so the loops are not optimized away.
volatile std::size_t g_sink = 0;

std::unique_ptr<core::WiLocatorServer> trained_server(
    const Inputs& in, std::size_t workers, const std::string& dir,
    bool load_history) {
  core::ServerConfig config;
  config.engine.workers = workers;
  config.engine.queue_capacity = 4096;
  config.engine.record_latency = workers > 0;
  config.arrival.min_refresh_wall_s = 0.02;
  config.persist.dir = dir;
  if (!dir.empty()) std::filesystem::remove_all(dir);
  auto server = std::make_unique<core::WiLocatorServer>(
      in.city.route_pointers(), in.city.ap_snapshot(), *in.city.rf_model,
      DaySlots::paper_five_slots(), config);
  if (load_history)
    for (const auto& obs : in.history) server->load_history(obs);
  server->finalize_history();
  // The serving front-end owns the checkpoint cadence (off-thread).
  server->set_inline_checkpoints(false);
  return server;
}

void begin_rounds(core::WiLocatorServer& server, const Inputs& in) {
  for (std::size_t round = 0; round < kReplayRounds; ++round)
    for (std::uint32_t i = 0; i < in.live.size(); ++i)
      server.begin_trip(roadnet::TripId(Plan::trip_id(i, round)),
                        in.live[i].record.route);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::map<std::string, double> run_layers(const Inputs& in, const Plan& plan,
                                         const std::string& state_dir) {
  std::map<std::string, double> out;

  std::vector<std::string> bodies;
  for (std::size_t conn = 0; conn < plan.uplinks(); ++conn)
    for (std::size_t b = 0; b < plan.batches(conn).size(); ++b)
      bodies.push_back(plan.body(conn, b, 0));
  std::vector<std::vector<std::vector<core::ScanSubmission>>> rounds;
  std::size_t replay_scans = 0;
  for (std::size_t r = 0; r < kReplayRounds; ++r) {
    rounds.push_back(plan.decoded_batches(r));
    for (const auto& batch : rounds.back()) replay_scans += batch.size();
  }

  // net: scan-batch decode over the workload's own bodies.
  {
    std::size_t scans = 0;
    const double t0 = now_s();
    double t1 = t0;
    while (t1 - t0 < kLoopS) {
      for (const std::string& body : bodies) {
        std::string error;
        const auto batch = net::decode_scan_batch(body, &error);
        scans += batch.has_value() ? batch->size() : 0;
      }
      t1 = now_s();
    }
    out["net.decode_ns_per_scan"] = (t1 - t0) * 1e9 / static_cast<double>(scans);
  }

  // core: the threaded engine at the serving config (2 workers).
  const std::string dir_a = state_dir + "/layers-threaded";
  auto server = trained_server(in, 2, dir_a, true);
  begin_rounds(*server, in);
  // core: the locked slow-path eta and the lock-free snapshot lookup
  // riders hit, measured mid-replay (drained) while trips are en route.
  const auto measure_queries = [&] {
    const SimTime now = server->last_event_time().value_or(0.0);
    std::vector<double> eta_us;
    for (std::uint32_t i = 0; i < in.live.size(); ++i) {
      const roadnet::TripId trip(Plan::trip_id(i, kReplayRounds - 1));
      const auto& route = in.city.routes[in.live[i].record.route.index()];
      const auto offset = server->position(trip);
      const std::size_t last = route.stop_count() - 1;
      if (!offset.has_value() || *offset >= route.stop_offset(last)) continue;
      const double a = now_s();
      const auto eta = server->eta(trip, last, now);
      const double b = now_s();
      if (eta.has_value()) eta_us.push_back((b - a) * 1e6);
    }
    out["core.eta_us_p50"] = summarize(eta_us).p50;

    server->flush_arrivals();
    const auto snap = server->arrival_snapshot();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;  // trip, route
    if (snap != nullptr)
      for (const auto& [trip, ta] : snap->trips)
        keys.emplace_back(trip.value(), ta->route.value());
    std::size_t lookups = 0;
    std::size_t hits = 0;
    const double a = now_s();
    double b = a;
    while (!keys.empty() && b - a < kLoopS) {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const auto s = server->arrival_snapshot();
        const core::TripArrivals* ta =
            k % 2 == 0 ? s->find(roadnet::TripId(keys[k].first))
                       : s->best(roadnet::RouteId(keys[k].second), 1);
        hits += ta != nullptr ? 1 : 0;
      }
      lookups += keys.size();
      b = now_s();
    }
    out["core.snapshot_lookup_ns"] =
        lookups == 0 ? 0.0 : (b - a) * 1e9 / static_cast<double>(lookups);
    g_sink = hits;
  };

  std::vector<double> ingest_us;
  std::vector<double> refresh_us;
  const std::size_t pause_at = rounds[0].size() + rounds[1].size() / 2;
  std::size_t done = 0;
  double paused = 0.0;
  const double t0 = now_s();
  for (const auto& round : rounds)
    for (const auto& batch : round) {
      if (done++ == pause_at) {
        const double p = now_s();
        server->drain();
        measure_queries();
        paused += now_s() - p;
      }
      const double a = now_s();
      server->ingest_batch(batch);
      const double b = now_s();
      ingest_us.push_back((b - a) * 1e6);
      // One coalescing window's worth of ingest at serving speed is about
      // 8 batches. Forcing the refresh that often also restarts the
      // window, so ingest_batch never refreshes on its own here and each
      // flush carries exactly the work of its 8 batches.
      if (done % 8 == 0) {
        server->flush_arrivals();
        const double c = now_s();
        refresh_us.push_back((c - b) * 1e6);
        paused += c - b;  // the engine rates below exclude refresh time
      }
    }
  server->drain();
  const double engine_s = now_s() - t0 - paused;
  out["core.engine_scans_per_s"] =
      static_cast<double>(replay_scans) / engine_s;
  out["core.ingest_batch_us_p50"] = summarize(ingest_us).p50;
  out["core.ingest_batch_us_p99"] = summarize(ingest_us).tail;
  out["core.arrival_refresh_us_p50"] = summarize(refresh_us).p50;

  {
    const obs::Snapshot snap = server->metrics_snapshot();
    if (const auto* depth = snap.histogram("engine.queue_depth"))
      out["core.engine_queue_depth_p99"] = depth->quantile(0.99);
    std::vector<double> lat_us;
    for (const double s : server->engine().take_latency_samples())
      lat_us.push_back(s * 1e6);
    const Summary lat = summarize(lat_us);
    out["core.engine_latency_us_p99"] = lat.tail;
    out["core.accepted_ratio"] = ratio(snap.counter("ingest.accepted"),
                                       snap.counter("engine.enqueued"));
    const std::uint64_t locates = snap.counter("locate.fast_path_hits") +
                                  snap.counter("locate.fallback_hits") +
                                  snap.counter("locate.misses");
    out["svd.fast_path_ratio"] =
        ratio(snap.counter("locate.fast_path_hits"), locates);
    out["svd.memo_hit_ratio"] = ratio(snap.counter("locate.memo_hits"), locates);
  }

  const core::StatePersistence* persist = server->persistence();
  out["core.journal_bytes_per_scan"] =
      static_cast<double>(persist->journal_bytes()) /
      static_cast<double>(replay_scans);
  std::vector<std::vector<std::byte>> pages;
  for (std::uint64_t after = 0;;) {
    auto tail = persist->tail_segments(after, 1u << 20);
    if (tail.records == 0) break;
    after = tail.last_seq;
    pages.push_back(std::move(tail.frames));
  }

  // svd: locate over the stream's rankings (counters read above, so the
  // direct calls here do not skew the ratios).
  {
    struct Query {
      const svd::PositioningIndex* index;
      std::vector<rf::ApId> ranked;
    };
    std::vector<Query> queries;
    for (const auto& batch : rounds.front())
      for (const auto& sub : batch)
        queries.push_back(
            {&server->index_for(in.live[Plan::index_of(sub.trip.value())]
                                    .record.route),
             sub.scan.ranked_aps()});
    std::size_t calls = 0;
    std::size_t sink = 0;
    const double a = now_s();
    double b = a;
    while (b - a < kLoopS) {
      for (const Query& q : queries) sink += q.index->locate(q.ranked).size();
      calls += queries.size();
      b = now_s();
    }
    out["svd.locate_ns"] = (b - a) * 1e9 / static_cast<double>(calls);
    g_sink = sink;
  }

  // core: checkpoint prepare (under the service lock when serving) and
  // commit (off the lock).
  {
    std::vector<double> prepare_us;
    std::vector<double> commit_ms;
    for (int i = 0; i < 3; ++i) {
      const double a = now_s();
      auto prepared = server->prepare_checkpoint();
      const double b = now_s();
      server->commit_prepared(std::move(prepared));
      const double c = now_s();
      prepare_us.push_back((b - a) * 1e6);
      commit_ms.push_back((c - b) * 1e3);
    }
    out["core.checkpoint_prepare_us"] = summarize(prepare_us).p50;
    out["core.checkpoint_commit_ms"] = summarize(commit_ms).p50;
  }
  server.reset();
  std::filesystem::remove_all(dir_a);

  // core: the single-thread baseline (workers=0) over the same rounds.
  {
    const std::string dir_b = state_dir + "/layers-serial";
    auto serial = trained_server(in, 0, dir_b, true);
    begin_rounds(*serial, in);
    std::size_t n = 0;
    double refresh_s = 0.0;
    const double a = now_s();
    for (const auto& round : rounds)
      for (const auto& batch : round) {
        serial->ingest_batch(batch);
        if (++n % 8 == 0) {  // same refresh cadence, excluded likewise
          const double r = now_s();
          serial->flush_arrivals();
          refresh_s += now_s() - r;
        }
      }
    serial->drain();
    out["core.engine_scans_per_s_serial"] =
        static_cast<double>(replay_scans) / (now_s() - a - refresh_s);
    serial.reset();
    std::filesystem::remove_all(dir_b);
  }

  // cluster: applying the threaded replay's journal pages on a peer that
  // has not seen them.
  {
    auto peer = trained_server(in, 0, "", false);
    net::WiLocatorService service(*peer);
    std::vector<double> apply_us;
    std::uint64_t records = 0;
    for (const auto& page : pages) {
      const double a = now_s();
      records += service.apply_replication_frames(page).records;
      apply_us.push_back((now_s() - a) * 1e6);
    }
    out["cluster.repl_apply_us_p50"] = summarize(apply_us).p50;
    out["cluster.repl_records_per_page"] =
        pages.empty() ? 0.0
                      : static_cast<double>(records) /
                            static_cast<double>(pages.size());
  }
  return out;
}

}  // namespace servebench
