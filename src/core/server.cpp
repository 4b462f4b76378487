#include "core/server.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <exception>
#include <thread>

#include "util/contracts.hpp"

namespace wiloc::core {

namespace {

/// Mean road distance a bus covers between two scans, the anomaly
/// detector's delta basis.
constexpr double kTypicalScanDistanceM = 70.0;

/// Renders the server-wide IngestStats under the `ingest.*` names: one
/// counter per field and per reject reason (RejectReason::none, index 0,
/// is never a rejection), and the `ingest.deferred` gauge (scans
/// buffered for reordering right now).
void render_ingest(const IngestStats& stats, obs::Snapshot& snap) {
  auto& c = snap.counters;
  c["ingest.submitted"] = stats.submitted;
  c["ingest.accepted"] = stats.accepted;
  c["ingest.reordered"] = stats.reordered;
  c["ingest.fixes"] = stats.fixes;
  c["ingest.degraded_fixes"] = stats.degraded_fixes;
  for (std::size_t i = 1; i < kRejectReasonCount; ++i)
    c[std::string("ingest.rejected.") +
      to_string(static_cast<RejectReason>(i))] = stats.rejected_by_reason[i];
  c["ingest.readings_dropped.invalid"] = stats.readings_dropped_invalid;
  c["ingest.readings_dropped.weak"] = stats.readings_dropped_weak;
  c["ingest.readings_dropped.duplicate"] = stats.readings_dropped_duplicate;
  c["ingest.readings_dropped.unknown_ap"] = stats.readings_dropped_unknown_ap;
  snap.gauges["ingest.deferred"] = static_cast<double>(stats.deferred);
}

/// Builds one RouteSvd per route on min(routes, cores) threads, the
/// caller being one of them; threads claim routes through an atomic
/// index. The build is pure (the routes, APs and model are only read),
/// so result i is bit-identical to a serial build of routes[i]. Rethrows
/// the first failure in route order.
std::vector<std::unique_ptr<svd::RouteSvd>> build_route_indexes(
    const std::vector<const roadnet::BusRoute*>& routes,
    const std::vector<rf::AccessPoint>& aps,
    const rf::LogDistanceModel& model, const svd::RouteSvdParams& params) {
  std::vector<std::unique_ptr<svd::RouteSvd>> built(routes.size());
  std::vector<std::exception_ptr> errors(routes.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < routes.size(); i = next++) {
      try {
        built[i] =
            std::make_unique<svd::RouteSvd>(*routes[i], aps, model, params);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      routes.size(), std::max(1u, std::thread::hardware_concurrency()));
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }  // joins the helpers
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return built;
}

}  // namespace

WiLocatorServer::WiLocatorServer(
    std::vector<const roadnet::BusRoute*> routes,
    std::vector<rf::AccessPoint> aps, const rf::LogDistanceModel& model,
    DaySlots slots, ServerConfig config)
    : config_(config),
      engine_(std::make_unique<IngestEngine>(
          config.filter, config.ingest, config.engine,
          ObsHooks{&registry_, &tracer_})),
      store_(std::move(slots)),
      predictor_(store_, config.predictor),
      traffic_builder_(store_, predictor_, config.traffic),
      arrival_table_(store_, predictor_, traffic_builder_, config.arrival) {
  WILOC_EXPECTS(!routes.empty());
  init_obs();
  for (const roadnet::BusRoute* route : routes)
    WILOC_EXPECTS(route != nullptr);
  const double build_start = wall_clock_s();
  std::vector<std::unique_ptr<svd::RouteSvd>> indexes =
      build_route_indexes(routes, aps, model, config_.svd);
  std::size_t index_bytes = 0;
  for (const auto& index : indexes) index_bytes += index->heap_bytes();
  for (std::size_t i = 0; i < routes.size(); ++i)
    adopt_route(*routes[i], std::move(indexes[i]));
  registry_.gauge("server.svd_build_s").set(wall_clock_s() - build_start);
  registry_.gauge("svd.index_bytes").set(static_cast<double>(index_bytes));
  init_arrival_table();
  init_persistence();
}

WiLocatorServer::WiLocatorServer(std::vector<RouteIndex> bindings,
                                 DaySlots slots, ServerConfig config)
    : config_(config),
      engine_(std::make_unique<IngestEngine>(
          config.filter, config.ingest, config.engine,
          ObsHooks{&registry_, &tracer_})),
      store_(std::move(slots)),
      predictor_(store_, config.predictor),
      traffic_builder_(store_, predictor_, config.traffic),
      arrival_table_(store_, predictor_, traffic_builder_, config.arrival) {
  WILOC_EXPECTS(!bindings.empty());
  init_obs();
  for (RouteIndex& binding : bindings) {
    WILOC_EXPECTS(binding.route != nullptr);
    WILOC_EXPECTS(binding.index != nullptr);
    adopt_route(*binding.route, std::move(binding.index));
  }
  init_arrival_table();
  init_persistence();
}

WiLocatorServer::~WiLocatorServer() {
  // Graceful shutdown: drain the engine FIRST so the final checkpoint
  // covers every submitted scan, then persist the learned state —
  // unless a persistence write already failed (injected crash or real
  // I/O error), in which case the on-disk state must stay exactly as the
  // failure left it.
  try {
    engine_->drain();
    if (persist_ == nullptr)
      publish_pending();
    else if (!persist_->poisoned())
      checkpoint();
  } catch (...) {
    // A destructor must not throw; the state directory simply keeps its
    // last consistent view and the next start recovers from it.
  }
}

void WiLocatorServer::init_obs() {
  tracer_.set_enabled(config_.tracing);

  PredictorMetrics pm;
  pm.predictions = &registry_.counter("predictor.predictions");
  pm.fallbacks = &registry_.counter("predictor.fallbacks");
  pm.correction_s = &registry_.histogram("predictor.correction_s");
  predictor_.set_metrics(pm);

  TrafficMetrics tm;
  tm.normal = &registry_.counter("traffic.normal");
  tm.slow = &registry_.counter("traffic.slow");
  tm.very_slow = &registry_.counter("traffic.very_slow");
  tm.unknown = &registry_.counter("traffic.unknown");
  tm.inferred = &registry_.counter("traffic.inferred");
  traffic_builder_.set_metrics(tm);

  obs_published_ = &registry_.counter("server.observations_published");
  history_dups_ = &registry_.counter("server.history_duplicates");
  repl_applied_ = &registry_.counter("server.replicated_applied");
  repl_dups_ = &registry_.counter("server.replicated_duplicates");

  ArrivalTableMetrics am;
  am.invalidations = &registry_.counter("arrival_cache.invalidations");
  am.rebuilds = &registry_.counter("arrival_cache.rebuilds");
  am.entries = &registry_.gauge("arrival_cache.entries");
  am.epoch = &registry_.gauge("arrival_cache.epoch");
  am.bytes = &registry_.gauge("mem.arrival_table_bytes");
  am.refresh_us = &registry_.histogram("arrival_cache.refresh_us");
  arrival_table_.set_metrics(am);

  persist_metrics_.snapshots = &registry_.counter("persist.snapshots");
  persist_metrics_.journal_appends =
      &registry_.counter("persist.journal_appends");
  persist_metrics_.journal_writes =
      &registry_.counter("persist.journal_writes");
  persist_metrics_.recovered = &registry_.counter("persist.recovered");
  persist_metrics_.skipped = &registry_.counter("persist.skipped");
  persist_metrics_.corrupt = &registry_.counter("persist.corrupt");
  persist_metrics_.config_mismatch =
      &registry_.counter("persist.config_mismatch");
  persist_metrics_.journal_bytes = &registry_.gauge("persist.journal_bytes");
}

void WiLocatorServer::init_arrival_table() {
  for (const auto& [id, rt] : routes_)
    all_edges_.insert(all_edges_.end(), rt.route->edges().begin(),
                      rt.route->edges().end());
  std::sort(all_edges_.begin(), all_edges_.end());
  all_edges_.erase(std::unique(all_edges_.begin(), all_edges_.end()),
                   all_edges_.end());
  arrival_table_.set_traffic_edges(all_edges_);
}

void WiLocatorServer::init_persistence() {
  config_fingerprint_ = state_fingerprint(
      store_.slots(), options_fingerprint(config_.predictor));
  if (!config_.persist.enabled()) return;
  persist_ = std::make_unique<StatePersistence>(config_.persist);
  persist_->set_metrics(persist_metrics_);
  recover_state();
  // A restarted node that recovered a finalized store skips training:
  // its set-up ends with the constructor.
  if (store_.finalized()) end_setup();
}

void WiLocatorServer::end_setup() {
#ifdef __GLIBC__
  // glibc keeps freed chunks resident: in the middle of the main heap,
  // where live learned state pins the top, and in each route-build
  // helper's arena, where nothing reuses them. malloc_trim walks every
  // arena and returns their whole free pages.
  malloc_trim(0);
#endif
  registry_.gauge("server.setup_s").set(wall_clock_s() - setup_start_wall_s_);
}

void WiLocatorServer::recover_state() {
  StatePersistence::RecoveryResult rec = persist_->recover();
  std::uint64_t corrupt = rec.replay.frames_corrupt + rec.undecodable;
  if (rec.replay.torn_tail) ++corrupt;
  if (rec.snapshot_corrupt) ++corrupt;

  std::uint64_t watermark = 0;
  if (rec.snapshot.has_value()) {
    try {
      watermark = apply_snapshot(*rec.snapshot);
      // Keep the journal sequence monotonic across restarts: tailing
      // peers key their replication watermarks on it, so a restarted
      // node must not reissue already-replicated sequence numbers.
      persist_->resume_seq(watermark);
      recovered_ = true;
    } catch (const DecodeError&) {
      // CRC-clean but of an unknown version or semantically
      // undecodable (a foreign layout): fall back to the journal alone,
      // like a corrupt snapshot.
      ++corrupt;
    }
  }

  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  for (const JournalEntry& record : rec.records) {
    persist_->resume_seq(record.seq);
    // A record at or below the watermark is already inside the snapshot.
    if (record.seq > watermark && fold(record.type, record.obs))
      ++applied;
    else
      ++skipped;
  }
  if (applied > 0) recovered_ = true;

  if (applied > 0 && persist_metrics_.recovered != nullptr)
    persist_metrics_.recovered->inc(applied);
  if (skipped > 0 && persist_metrics_.skipped != nullptr)
    persist_metrics_.skipped->inc(skipped);
  if (corrupt > 0 && persist_metrics_.corrupt != nullptr)
    persist_metrics_.corrupt->inc(corrupt);

  // Fold everything recovered into a fresh snapshot: torn tails and
  // orphaned records are gone, and the new run starts from a compact,
  // verified baseline.
  if (recovered_) commit_prepared(seal_checkpoint());
}

std::vector<std::byte> WiLocatorServer::snapshot_body() const {
  BinWriter w;
  w.put_u64(config_fingerprint_);
  w.put_u64(persist_ != nullptr ? persist_->last_seq() : 0);
  store_.save(w);
  return w.take();
}

std::uint64_t WiLocatorServer::apply_snapshot(
    const journal::SnapshotData& snapshot) {
  if (snapshot.version < StatePersistence::kOldestSnapshotVersion ||
      snapshot.version > StatePersistence::kSnapshotVersion)
    throw DecodeError("server snapshot: unsupported version " +
                      std::to_string(snapshot.version));
  // A version-1 body continues with the retired traffic-map section
  // after the store; it is derived state and never read.
  BinReader r(snapshot.body);
  const std::uint64_t fingerprint = r.get_u64();
  const std::uint64_t watermark = r.get_u64();
  if (fingerprint != config_fingerprint_ &&
      persist_metrics_.config_mismatch != nullptr)
    persist_metrics_.config_mismatch->inc();
  store_.restore(r);
  history_seen_.clear();
  for (const TravelObservation& obs : store_.raw_history())
    history_seen_.insert(ObservationKey::of(obs));
  return watermark;
}

WiLocatorServer::PreparedCheckpoint WiLocatorServer::seal_checkpoint() {
  persist_->seal_journal();
  return {snapshot_body(), last_event_time_, true};
}

void WiLocatorServer::maybe_checkpoint() {
  // A background checkpointer, when present, owns the cadence.
  if (inline_checkpoints_ && checkpoint_due())
    commit_prepared(seal_checkpoint());
}

bool WiLocatorServer::checkpoint_due() const {
  if (persist_ == nullptr || persist_->poisoned() || !has_event_)
    return false;
  // The offline load sweeps exit times through days of history in
  // moments; an interval trigger there would re-serialize the growing
  // store every few simulated minutes. The journal size alone bounds
  // recovery until finalize takes the first full checkpoint.
  if (!store_.finalized()) return persist_->journal_full();
  return persist_->should_checkpoint(last_event_time_);
}

WiLocatorServer::PreparedCheckpoint WiLocatorServer::prepare_checkpoint() {
  PreparedCheckpoint prepared;
  if (persist_ == nullptr || persist_->poisoned()) return prepared;
  publish_pending();
  return seal_checkpoint();
}

void WiLocatorServer::commit_prepared(PreparedCheckpoint&& prepared) {
  if (!prepared.valid || persist_ == nullptr) return;
  persist_->commit_checkpoint(prepared.body, prepared.at);
  prepared = {};
}

void WiLocatorServer::note_event(SimTime t) {
  // Callers are serialized (service lock), so the read-modify-write is
  // race-free; the release store pairs with the acquire load in
  // last_event_time() on the reporter thread.
  if (!has_event_.load(std::memory_order_relaxed) ||
      t > last_event_time_.load(std::memory_order_relaxed)) {
    last_event_time_.store(t, std::memory_order_relaxed);
    has_event_.store(true, std::memory_order_release);
  }
}

void WiLocatorServer::checkpoint() {
  WILOC_EXPECTS(persist_ != nullptr);
  publish_pending();
  commit_prepared(seal_checkpoint());
}

void WiLocatorServer::save_snapshot(const std::string& path) {
  publish_pending();
  journal::write_snapshot_file(path, StatePersistence::kSnapshotMagic,
                               StatePersistence::kSnapshotVersion,
                               snapshot_body(), /*do_fsync=*/true);
}

bool WiLocatorServer::restore_snapshot(const std::string& path) {
  const auto snap =
      journal::read_snapshot_file(path, StatePersistence::kSnapshotMagic);
  if (!snap.has_value()) return false;
  apply_snapshot(*snap);
  recovered_ = true;
  return true;
}

void WiLocatorServer::adopt_route(
    const roadnet::BusRoute& route,
    std::unique_ptr<svd::PositioningIndex> index) {
  RouteRuntime rt;
  rt.route = &route;
  rt.index = std::move(index);
  svd::LocateMetrics lm;
  lm.fast_path_hits = &registry_.counter("locate.fast_path_hits");
  lm.fallback_hits = &registry_.counter("locate.fallback_hits");
  lm.misses = &registry_.counter("locate.misses");
  lm.candidates = &registry_.histogram("locate.candidates");
  lm.memo_hits = &registry_.counter("locate.memo_hits");
  rt.index->set_metrics(lm);
  rt.positioner =
      std::make_unique<SvdPositioner>(*rt.index, config_.positioner);
  engine_->bind_route(route.id(),
                      {rt.route, rt.index.get(), rt.positioner.get()});
  routes_.emplace(route.id(), std::move(rt));
}

void WiLocatorServer::load_history(const TravelObservation& obs) {
  if (store_.finalized())
    throw StateError("load_history after finalize_history");
  if (!fold(JournalRecord::history_obs, obs)) {
    if (history_dups_ != nullptr) history_dups_->inc();
    return;
  }
  if (persist_ != nullptr) {
    persist_->stage(JournalRecord::history_obs, obs);
    if (persist_->staged_bytes() >= StatePersistence::kHistoryFlushBytes)
      persist_->flush();
    maybe_checkpoint();
  }
}

bool WiLocatorServer::apply_replicated(JournalRecord type,
                                       const TravelObservation& obs) {
  // A replicated record is a journal record that took the network path
  // instead of the disk path. No local journal append (see header).
  const bool added = fold(type, obs);
  obs::Counter* counter = added ? repl_applied_ : repl_dups_;
  if (counter != nullptr) counter->inc();
  return added;
}

bool WiLocatorServer::fold(JournalRecord type, const TravelObservation& obs) {
  bool added = false;
  if (type == JournalRecord::recent_obs) {
    added = store_.add_recent(obs);
  } else if (!store_.finalized() &&
             history_seen_.insert(ObservationKey::of(obs)).second) {
    store_.add_history(obs);
    added = true;
  }
  if (added) note_event(obs.exit_time);
  return added;
}

StatePersistence::TailResult WiLocatorServer::tail_journal(
    std::uint64_t after, std::size_t max_bytes) {
  WILOC_EXPECTS(persist_ != nullptr);
  // Every publish flushes its batch, so only an unfinished history load
  // leaves frames staged between calls; once finalized the read path
  // touches no writer state. A poisoned manager's staged frames never
  // reach disk: peers get the flushed prefix, as recovery would.
  if (!store_.finalized() && !persist_->poisoned()) persist_->flush();
  return persist_->tail_segments(after, max_bytes);
}

void WiLocatorServer::finalize_history() {
  const double start = wall_clock_s();
  store_.finalize_history();
  // Raw history is frozen; the set is done. clear() would free its
  // nodes but keep the bucket array resident for the server's life.
  decltype(history_seen_)().swap(history_seen_);
  if (persist_ != nullptr) commit_prepared(seal_checkpoint());
  end_setup();
  registry_.gauge("server.finalize_s").set(wall_clock_s() - start);
}

void WiLocatorServer::begin_trip(roadnet::TripId trip,
                                 roadnet::RouteId route) {
  const RouteRuntime& rt = runtime_for(route);  // throws NotFound first
  engine_->begin_trip(trip, route);
  arrival_table_.track(trip, rt.route);
}

bool WiLocatorServer::has_trip(roadnet::TripId trip) const {
  return engine_->has_trip(trip);
}

IngestResult WiLocatorServer::ingest(roadnet::TripId trip,
                                     const rf::WifiScan& scan) {
  const IngestResult result = engine_->ingest(trip, scan);
  ++ingest_activity_;
  publish_pending();
  return result;
}

BatchIngestResult WiLocatorServer::ingest_batch(
    std::span<const ScanSubmission> batch) {
  const BatchIngestResult result = engine_->ingest_batch(batch);
  ++ingest_activity_;
  publish_pending();
  return result;
}

void WiLocatorServer::drain() {
  engine_->drain();
  ++ingest_activity_;
  publish_pending();
}

void WiLocatorServer::publish_pending() {
  std::vector<TravelObservation> ready = engine_->take_ready_observations();
  std::size_t fresh = 0;
  for (const TravelObservation& obs : ready) {
    const bool added = fold(JournalRecord::recent_obs, obs);
    if (obs_published_ != nullptr) obs_published_->inc();
    note_event(obs.exit_time);  // a re-delivered duplicate is an event too
    // Journal only genuinely new observations: a duplicate the store
    // dropped must not resurface on the next replay.
    if (added) ready[fresh++] = obs;
  }
  // The whole fold batch goes to the journal in one write.
  if (persist_ != nullptr) {
    for (std::size_t i = 0; i < fresh; ++i)
      persist_->stage(JournalRecord::recent_obs, ready[i]);
    persist_->flush();
  }
  maybe_refresh_arrivals();
  maybe_checkpoint();
}

void WiLocatorServer::maybe_refresh_arrivals() {
  if (!has_event_ || !store_.finalized()) return;
  if (ingest_activity_ == refreshed_activity_ &&
      store_.epoch() == refreshed_epoch_ && !arrival_table_.dirty())
    return;
  // Coalescing: a hot ingest stream pays materialization at most once
  // per window. Skipped work stays pending (the gate above still sees
  // stale counters) until a later publish or flush_arrivals().
  const double min_gap = arrival_table_.params().min_refresh_wall_s;
  if (min_gap > 0.0 && wall_clock_s() - arrival_refresh_wall_ < min_gap)
    return;
  arrival_refresh_wall_ = wall_clock_s();
  refreshed_activity_ = ingest_activity_;
  refreshed_epoch_ = store_.epoch();
  arrival_table_.refresh(last_event_time_, [this](roadnet::TripId trip) {
    return engine_->position(trip);
  });
}

void WiLocatorServer::flush_arrivals() {
  arrival_refresh_wall_ = -1.0e300;
  publish_pending();
}

void WiLocatorServer::flush_trip(roadnet::TripId trip) {
  engine_->flush_trip(trip);
  ++ingest_activity_;
  publish_pending();
}

void WiLocatorServer::end_trip(roadnet::TripId trip) {
  engine_->end_trip(trip);
  arrival_table_.drop(trip);
  ++ingest_activity_;
  publish_pending();
}

std::optional<double> WiLocatorServer::position(
    roadnet::TripId trip) const {
  return engine_->position(trip);
}

std::optional<SimTime> WiLocatorServer::eta(roadnet::TripId trip,
                                            std::size_t stop_index,
                                            SimTime now) const {
  const auto offset = engine_->position(trip);  // throws on unknown trip
  if (!offset.has_value()) return std::nullopt;
  const roadnet::BusRoute& route =
      *runtime_for(engine_->route_of(trip)).route;
  return predictor_.predict_arrival(route, *offset, now, stop_index);
}

std::optional<WiLocatorServer::RouteArrival> WiLocatorServer::route_eta(
    roadnet::RouteId route_id, std::size_t stop_index, SimTime now) const {
  const roadnet::BusRoute& route = *runtime_for(route_id).route;
  std::optional<RouteArrival> best;
  for (const roadnet::TripId trip : arrival_table_.trips_on(route_id)) {
    const auto offset = engine_->position(trip);
    if (!offset.has_value()) continue;
    const SimTime at =
        predictor_.predict_arrival(route, *offset, now, stop_index);
    if (!best.has_value() ||
        arrives_before(at, trip, best->arrival, best->trip))
      best = RouteArrival{trip, at};
  }
  return best;
}

TrafficMap WiLocatorServer::traffic_map(SimTime now) const {
  return traffic_builder_.build(all_edges_, now);
}

std::vector<Anomaly> WiLocatorServer::anomalies(
    roadnet::TripId trip) const {
  const std::vector<Fix> fixes = engine_->fixes(trip);
  const roadnet::BusRoute& route =
      *runtime_for(engine_->route_of(trip)).route;
  const AnomalyDetector detector(route, kTypicalScanDistanceM);
  return detector.detect(fixes);
}

IngestStats WiLocatorServer::trip_ingest_stats(roadnet::TripId trip) const {
  return engine_->trip_stats(trip);
}

IngestStats WiLocatorServer::ingest_stats() const {
  return engine_->totals().stats;
}

obs::Snapshot WiLocatorServer::metrics_snapshot() const {
  obs::Snapshot snap = registry_.snapshot();
  const IngestEngine::Totals totals = engine_->totals();
  render_ingest(totals.stats, snap);
  snap.gauges["mem.trip_state_bytes"] =
      static_cast<double>(totals.trip_state_bytes);
#ifdef __GLIBC__
  // Every arena's allocated chunks plus mmapped blocks: the total the
  // mem.* owners are a part of.
  const struct mallinfo2 heap = mallinfo2();
  snap.gauges["mem.heap_in_use_bytes"] =
      static_cast<double>(heap.uordblks + heap.hblkhd);
#endif
  if (const auto published = arrival_table_.snapshot(); published != nullptr)
    snap.gauges["arrival_cache.snapshot_age_s"] =
        std::max(0.0, wall_clock_s() - published->built_wall_s);
  return snap;
}

const svd::PositioningIndex& WiLocatorServer::index_for(
    roadnet::RouteId route) const {
  return *runtime_for(route).index;
}

const BusTracker& WiLocatorServer::tracker(roadnet::TripId trip) const {
  return engine_->tracker(trip);
}

const roadnet::BusRoute& WiLocatorServer::route(roadnet::RouteId id) const {
  return *runtime_for(id).route;
}

const WiLocatorServer::RouteRuntime& WiLocatorServer::runtime_for(
    roadnet::RouteId route) const {
  const auto it = routes_.find(route);
  if (it == routes_.end())
    throw NotFound("unknown route " + std::to_string(route.value()));
  return it->second;
}

}  // namespace wiloc::core
