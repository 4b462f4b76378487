// The WiLocator back-end server.
//
// The paper's architecture (Fig. 4) shifts all computation to a server:
// phones only report scans. This facade wires the whole pipeline:
//   scans -> SVD positioning -> mobility filter -> trackers
//         -> segment travel-time observations -> recent store
//   queries: live position, ETA at a stop, traffic map, anomalies.
//
// Offline phase: load historical travel times (weeks of data), finalize.
// Online phase: begin trips, ingest scan reports, query.
//
// Scan processing is delegated to a sharded IngestEngine. With the
// default config (engine.workers == 0) every call runs inline on the
// caller thread — the serial pipeline, byte-identical to the historical
// single-threaded server. With engine.workers >= 1 the scans of
// ingest_batch() are processed by a worker pool (trips hash to shards;
// per-trip order is preserved); trip control (begin/flush/end) and the
// single-scan ingest() still run inline, after the trip's shard has
// drained. Queries are safe from one control thread concurrent with the
// workers; after drain() the state is identical to the serial run of
// the same submission sequence.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/anomaly.hpp"
#include "core/arrival_table.hpp"
#include "core/ingest_engine.hpp"
#include "core/persist.hpp"
#include "core/predictor.hpp"
#include "core/tracker.hpp"
#include "core/traffic_map.hpp"
#include "svd/route_svd.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

struct ServerConfig {
  svd::RouteSvdParams svd;
  PositionerParams positioner;
  MobilityFilterParams filter;
  PredictorOptions predictor;
  TrafficMapParams traffic;
  IngestGuardParams ingest;  ///< per-trip scan-stream guard
  IngestEngineParams engine; ///< sharding / worker pool (0 = serial)
  ArrivalTableParams arrival; ///< materialized read-path snapshot
  PersistenceConfig persist; ///< durable state (disabled by default)
  bool tracing = false;  ///< record per-scan trace spans (bounded ring)
};

class WiLocatorServer {
 public:
  /// Builds one RouteSvd index per route from the AP snapshot, the
  /// routes in parallel on up to one thread per core (the result does
  /// not depend on the thread count). The routes and model must outlive
  /// the server; APs are copied.
  WiLocatorServer(std::vector<const roadnet::BusRoute*> routes,
                  std::vector<rf::AccessPoint> aps,
                  const rf::LogDistanceModel& model, DaySlots slots,
                  ServerConfig config = {});

  /// A route with a caller-supplied positioning index (e.g. built by
  /// svd::SurveyBuilder from crowd scans — no propagation model needed).
  struct RouteIndex {
    const roadnet::BusRoute* route;
    std::unique_ptr<svd::PositioningIndex> index;
  };

  /// Runs on injected indexes; the routes must outlive the server.
  WiLocatorServer(std::vector<RouteIndex> bindings, DaySlots slots,
                  ServerConfig config = {});

  /// Graceful shutdown: drains the engine, publishes pending
  /// observations, and (when persistence is enabled and not poisoned by
  /// a failed write) takes a final checkpoint. Never throws.
  ~WiLocatorServer();

  WiLocatorServer(const WiLocatorServer&) = delete;
  WiLocatorServer& operator=(const WiLocatorServer&) = delete;

  // -- offline training --------------------------------------------------

  /// Feeds one historical observation (ground truth or tracked). With
  /// persistence its journal frame is staged and written once
  /// StatePersistence::kHistoryFlushBytes accumulate (or at the next
  /// checkpoint, finalize_history() or tail_journal()), so a crash
  /// mid-load keeps the flushed prefix and a rerun of the load converges.
  /// Idempotent: an observation identical to one already loaded (same
  /// edge, route, exit time and travel time) is dropped — re-feeding a
  /// training file, or replaying a journal over a restored snapshot,
  /// cannot double-count (server.history_duplicates counts the drops).
  void load_history(const TravelObservation& obs);
  /// Freezes history and computes residual statistics. Checkpoints when
  /// persistence is enabled (the finalized flag is part of the state).
  /// Set-up ends here, so the heap it freed goes back to the OS. The
  /// `server.finalize_s` gauge times this call, trim included.
  void finalize_history();

  // -- online operation --------------------------------------------------

  /// Registers a bus trip on a route (route identification is assumed
  /// done — by announcement capture, driver input, or RouteIdentifier).
  void begin_trip(roadnet::TripId trip, roadnet::RouteId route);

  /// True when the trip is registered.
  bool has_trip(roadnet::TripId trip) const;

  /// Processes one scan of a registered trip through the per-trip
  /// IngestGuard; updates the tracker and harvests any completed segment
  /// observations into the recent store. Never throws on malformed
  /// scans, unknown trips, closed trips, or out-of-order input — the
  /// outcome is reported in the IngestResult and in the health counters.
  /// In threaded mode the call first waits for the trip's shard to drain
  /// (it is ordered after everything already queued there).
  IngestResult ingest(roadnet::TripId trip, const rf::WifiScan& scan);

  /// High-throughput entry point: enqueues a batch of scans across the
  /// engine's shards and returns without waiting for processing (a full
  /// shard queue blocks; no scan is dropped). Per-scan outcomes land in
  /// the IngestStats. In serial mode the batch is processed inline.
  BatchIngestResult ingest_batch(std::span<const ScanSubmission> batch);

  /// Blocks until every submitted scan has been processed. After this,
  /// state is byte-identical to a serial server fed the same sequence.
  void drain();

  /// Releases the trip's reorder buffer into its tracker (e.g. before a
  /// query that must see every scan submitted so far).
  void flush_trip(roadnet::TripId trip);

  /// Closes a trip (its reorder buffer is flushed; the tracker is kept
  /// for post-hoc queries).
  void end_trip(roadnet::TripId trip);

  // -- queries -----------------------------------------------------------

  /// Current route offset of a trip, if tracking has a fix.
  std::optional<double> position(roadnet::TripId trip) const;

  // Queries read learned state as the last mutator published it; they
  // never publish themselves (in threaded mode, call drain() first to
  // see every submitted scan).

  /// Predicted arrival time at the stop (Eq. 9). nullopt without a fix.
  std::optional<SimTime> eta(roadnet::TripId trip, std::size_t stop_index,
                             SimTime now) const;

  /// A route-level answer: which active trip reaches the stop first.
  struct RouteArrival {
    roadnet::TripId trip{};
    SimTime arrival = 0.0;
  };

  /// Eq. 9 over every active trip of the route that has a fix, picked
  /// by arrives_before() — the rule the snapshot's route-best index
  /// uses. nullopt when no active trip has a fix; throws NotFound on
  /// an unknown route.
  std::optional<RouteArrival> route_eta(roadnet::RouteId route,
                                        std::size_t stop_index,
                                        SimTime now) const;

  /// Traffic map over every edge used by any registered route.
  TrafficMap traffic_map(SimTime now) const;

  /// The current materialized read-path snapshot (see ArrivalTable):
  /// the arrival times and traffic map rider answers are rendered from,
  /// refreshed by the control side whenever learned state or positions
  /// move. Safe from any thread without the service lock (one short
  /// pointer-copy critical section); nullptr before the first
  /// post-finalize refresh.
  std::shared_ptr<const ArrivalSnapshot> arrival_snapshot() const {
    return arrival_table_.snapshot();
  }

  /// Publishes pending observations and forces any pending arrival
  /// refresh through, ignoring the coalescing window. The service's
  /// checkpoint poll calls this so the staleness of both the store and
  /// the snapshot stays bounded even when ingest goes quiet.
  void flush_arrivals();

  /// Anomaly windows detected on the trip's trajectory so far.
  std::vector<Anomaly> anomalies(roadnet::TripId trip) const;

  /// Ingest health counters of one trip (snapshot copy).
  IngestStats trip_ingest_stats(roadnet::TripId trip) const;

  /// Server-wide ingest health: every per-trip counter plus the
  /// unknown-trip / closed-trip rejections that never reached a guard.
  /// accounted() holds on the aggregate whenever the engine is idle.
  IngestStats ingest_stats() const;

  // -- replication (cluster peers) ---------------------------------------

  /// Applies one journal record tailed from a peer node through the
  /// same fold recovery uses (see fold()), so overlapped replication
  /// pages and re-tails from zero converge instead of double-counting.
  /// Replicated records are NOT re-journaled locally (they carry the
  /// origin node's sequence numbers and would echo between peers);
  /// they become locally durable through this node's own snapshots,
  /// which serialize the whole store. Returns true when the record was
  /// genuinely new here (server.replicated_applied; duplicates land in
  /// server.replicated_duplicates).
  bool apply_replicated(JournalRecord type, const TravelObservation& obs);

  // -- durable state (ServerConfig::persist) -----------------------------

  /// True when construction recovered learned state from the persistence
  /// directory (snapshot and/or journal records were applied).
  bool recovered() const { return recovered_; }

  /// Publishes pending observations, then checkpoints now: seals the
  /// journal, snapshots the learned state and drops the sealed segment.
  /// Requires persistence to be enabled. Synchronous (caller-thread
  /// I/O); a serving front-end runs the same two phases split across
  /// threads with prepare_checkpoint() / commit_prepared().
  void checkpoint();

  /// A serialized checkpoint waiting for its (possibly off-thread)
  /// snapshot write. Obtained from prepare_checkpoint().
  struct PreparedCheckpoint {
    std::vector<std::byte> body;
    SimTime at = 0.0;
    bool valid = false;
  };

  /// True when the periodic/size checkpoint trigger has fired — the
  /// background checkpointer polls this under the same lock that
  /// serializes control-thread calls. Until finalize_history() only the
  /// journal-size trigger counts: the interval measures online time.
  bool checkpoint_due() const;

  /// Phase 1 (control thread): publishes pending observations, seals
  /// the journal and serializes the learned state. Cheap: in-memory
  /// serialization plus one rename. Returns an invalid checkpoint when
  /// persistence is disabled or poisoned.
  PreparedCheckpoint prepare_checkpoint();

  /// Phase 2 (any thread): writes the prepared snapshot to disk and
  /// drops the sealed journal segment it covers. Safe to run
  /// concurrently with control-thread ingest/queries — it never touches
  /// the active journal or the learned state.
  void commit_prepared(PreparedCheckpoint&& prepared);

  /// When disabled, publish_pending() stops taking interval/size
  /// checkpoints inline on the control thread — a background
  /// checkpointer (net::WiLocatorService) owns the cadence instead.
  void set_inline_checkpoints(bool enabled) {
    inline_checkpoints_ = enabled;
  }

  /// Sim-time of the newest event the server has seen (scan
  /// observation exit or recovered record); nullopt before any.
  std::optional<SimTime> last_event_time() const {
    return has_event_.load(std::memory_order_acquire)
               ? std::optional<SimTime>(
                     last_event_time_.load(std::memory_order_relaxed))
               : std::nullopt;
  }

  /// The persistence manager, or nullptr when disabled (tests, benches).
  const StatePersistence* persistence() const { return persist_.get(); }

  /// One page of journal records after `after` for a tailing peer
  /// (StatePersistence::tail_segments). Frames a history load left
  /// staged are flushed first, so the page reaches last_seq(); after
  /// finalize_history() nothing is ever left staged and the call only
  /// reads. Requires persistence to be enabled.
  StatePersistence::TailResult tail_journal(std::uint64_t after,
                                            std::size_t max_bytes);

  /// Serializes the full learned state (the travel-time store) to an
  /// arbitrary snapshot file — works with persistence disabled (e.g. to
  /// ship a warmed-up state to another server).
  /// Publishes pending observations first.
  void save_snapshot(const std::string& path);

  /// Restores state written by save_snapshot / checkpoint. Returns false
  /// when the file is missing; throws DecodeError when it is corrupt or
  /// of an unknown version.
  bool restore_snapshot(const std::string& path);

  // -- observability -----------------------------------------------------

  /// Point-in-time copy of every metric the pipeline maintains: the
  /// registry (engine.*, locate.*, predictor.*, traffic.*, server.*,
  /// ...) plus what is rendered when metrics are read — `ingest.*` from
  /// ingest_stats() (counters, and the `ingest.deferred` gauge of
  /// buffered scans), the `mem.trip_state_bytes` gauge (heap of every
  /// trip's tracker and guard, summed in the same per-shard pass), the
  /// `mem.heap_in_use_bytes` gauge (glibc's allocated heap, mallinfo2;
  /// absent off glibc) and the `arrival_cache.snapshot_age_s` gauge
  /// (wall seconds since the published arrival snapshot was built;
  /// absent before the first publish). Safe from any thread.
  obs::Snapshot metrics_snapshot() const;

  /// The live registry (e.g. to register application-level metrics
  /// alongside the pipeline's).
  obs::Registry& metrics_registry() { return registry_; }

  /// Drains the trace ring (empty unless config.tracing). Each scan's
  /// events share its submission sequence number as the span id.
  std::vector<obs::TraceEvent> take_trace_events() { return tracer_.take(); }

  /// Toggles span recording at runtime (initially ServerConfig::tracing).
  void set_tracing(bool on) { tracer_.set_enabled(on); }

  // -- component access (benches, tests) ---------------------------------

  const svd::PositioningIndex& index_for(roadnet::RouteId route) const;
  /// Requires a drained engine in threaded mode.
  const BusTracker& tracker(roadnet::TripId trip) const;
  TravelTimeStore& store() {
    publish_pending();
    return store_;
  }
  const TravelTimeStore& store() const { return store_; }
  const ArrivalPredictor& predictor() const { return predictor_; }
  const roadnet::BusRoute& route(roadnet::RouteId id) const;
  const IngestEngine& engine() const { return *engine_; }
  IngestEngine& engine() { return *engine_; }

 private:
  struct RouteRuntime {
    const roadnet::BusRoute* route;
    std::unique_ptr<svd::PositioningIndex> index;
    std::unique_ptr<SvdPositioner> positioner;
  };

  void adopt_route(const roadnet::BusRoute& route,
                   std::unique_ptr<svd::PositioningIndex> index);
  const RouteRuntime& runtime_for(roadnet::RouteId route) const;
  /// Moves order-finalized segment observations from the engine into the
  /// recent store (serial submission order). Cheap when nothing is
  /// pending. Only mutators call it. This is also where journaling (the
  /// batch is staged, then flushed in one write) and interval
  /// checkpoints happen — always on the calling (control) thread, never
  /// on the engine's shard workers.
  void publish_pending();
  /// The one fold of an observation record into learned state, shared
  /// by publishing, history loading, recovery and replication. A recent
  /// observation passes the store's exact-duplicate rejection; a
  /// history observation is dropped once history is finalized and
  /// otherwise passes the ObservationKey dedup. Advances the event
  /// clock and returns true when the record was genuinely new.
  bool fold(JournalRecord type, const TravelObservation& obs);
  /// Resolves the prediction-side metric handles (both constructors).
  void init_obs();
  /// Computes the all-routes edge union and hands it to the arrival
  /// table (after route adoption, both constructors).
  void init_arrival_table();
  /// Opens the state directory and replays whatever state it holds.
  void init_persistence();
  /// Applies snapshot + post-watermark journal records; sets recovered_.
  void recover_state();
  /// Ends set-up: returns the heap it freed (route-build and
  /// history-load scratch) to the OS, so the resident set is the learned
  /// state, and sets the `server.setup_s` gauge (wall seconds since
  /// construction began). Runs once: at finalize_history(), or at the
  /// end of construction when recovery restored a finalized store.
  void end_setup();
  /// Serializes [fingerprint][watermark][store].
  std::vector<std::byte> snapshot_body() const;
  /// Inverse of snapshot_body() for any readable version; returns the
  /// embedded journal watermark. Throws DecodeError on an unknown
  /// version or an undecodable body.
  std::uint64_t apply_snapshot(const journal::SnapshotData& snapshot);
  /// Seals the journal and serializes the state it covers, without
  /// publishing first: the inline trigger runs inside publish_pending(),
  /// so re-entering it here would recurse.
  PreparedCheckpoint seal_checkpoint();
  /// Interval/size-triggered inline checkpoint; cheap no-op when not
  /// due or when a background owner holds the cadence.
  void maybe_checkpoint();
  /// Advances the shutdown/reporting clock to the given event time.
  void note_event(SimTime t);
  /// Refreshes the materialized arrival table when ingest activity or
  /// the store epoch moved since the last refresh (cheap no-op else).
  void maybe_refresh_arrivals();

  /// Wall time construction began (first member: set before any other
  /// member is built).
  double setup_start_wall_s_ = wall_clock_s();
  ServerConfig config_;
  std::unordered_map<roadnet::RouteId, RouteRuntime> routes_;
  // Declared before engine_: the engine (and everything downstream)
  // holds handles into the registry/tracer, so they must outlive it.
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<IngestEngine> engine_;
  TravelTimeStore store_;
  ArrivalPredictor predictor_;
  TrafficMapBuilder traffic_builder_;
  ArrivalTable arrival_table_;
  /// Union of every registered route's edges, sorted + deduped once
  /// (the traffic-map domain; routes are fixed at construction).
  std::vector<roadnet::EdgeId> all_edges_;
  /// Bumped by every ingest-side call that can move a position, so
  /// maybe_refresh_arrivals() skips the per-trip position poll when
  /// nothing could have changed.
  std::uint64_t ingest_activity_ = 0;
  std::uint64_t refreshed_activity_ = ~0ull;
  std::uint64_t refreshed_epoch_ = ~0ull;
  /// Wall time of the last arrival refresh; gates the coalescing
  /// window (ArrivalTableParams::min_refresh_wall_s).
  double arrival_refresh_wall_ = -1.0e300;
  std::unique_ptr<StatePersistence> persist_;  ///< nullptr when disabled
  /// Exact identities of loaded history observations (cleared at
  /// finalize; rebuilt from raw history on restore).
  std::unordered_set<ObservationKey, ObservationKey::Hash> history_seen_;
  std::uint64_t config_fingerprint_ = 0;
  bool recovered_ = false;
  bool inline_checkpoints_ = true;
  // Written only by note_event() (callers already serialized by the
  // service lock); read lock-free by the serve loop through
  // last_event_time(), hence atomic.
  std::atomic<SimTime> last_event_time_{0.0};
  std::atomic<bool> has_event_{false};
  obs::Counter* obs_published_ = nullptr;  ///< server.observations_published
  obs::Counter* history_dups_ = nullptr;   ///< server.history_duplicates
  obs::Counter* repl_applied_ = nullptr;   ///< server.replicated_applied
  obs::Counter* repl_dups_ = nullptr;      ///< server.replicated_duplicates
  PersistMetrics persist_metrics_;
};

}  // namespace wiloc::core
