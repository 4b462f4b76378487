// Sharded concurrent ingest — the server's scan-processing engine.
//
// The paper's server must absorb crowd-sensed scans from every bus in a
// city at once; one thread cannot. The engine shards *trips* across a
// fixed worker pool: a trip's id hashes to exactly one shard, so every
// scan of that trip is processed by the same worker in submission order
// — the per-trip ordering contract BusTracker/IngestGuard rely on holds
// with no locking on the scan-processing hot path beyond the shard's own
// (uncontended) state mutex. Cross-trip reads (aggregate stats, live
// position queries) take striped per-shard mutexes; there is no global
// lock anywhere.
//
// Ordering & determinism:
//  - Every submission (scan or control op) gets a global sequence number
//    in call order. Per-shard queues are FIFO, so per-trip processing
//    order == submission order.
//  - Only batched scans ride the shard queues. begin/end/flush and the
//    single-scan ingest() run inline on the caller thread: each holds
//    the sequencing lock, waits for its trip's shard to drain, then runs
//    under that shard's state mutex. A scan enqueued before end_trip(t)
//    is therefore processed before the trip closes, and one enqueued
//    after it is rejected closed_trip, exactly as in a serial call
//    sequence.
//  - Completed segment observations are tagged with the sequence number
//    of the submission that produced them and handed over in global
//    sequence order (take_ready_observations releases only the prefix
//    below every shard's processing frontier). The store therefore sees
//    observations in the same order a serial server would insert them.
//  - With workers == 0 there are no queues: ingest_batch runs every scan
//    inline and the drain is a no-op — the exact serial pipeline,
//    byte-identical to the pre-engine server. With workers >= 1 a
//    drained engine has produced byte-identical per-trip fixes, stats,
//    and observation order.
//
// Backpressure: each shard's queue is bounded; ingest_batch blocks for
// room, so no scan is ever dropped at the queue.
//
// Shutdown: the destructor drains every queue, then joins the workers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/ingest_guard.hpp"
#include "core/tracker.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

/// One element of a batched submission.
struct ScanSubmission {
  roadnet::TripId trip;
  rf::WifiScan scan;
};

struct IngestEngineParams {
  std::size_t workers = 0;  ///< worker threads; 0 = inline serial mode
  std::size_t queue_capacity = 1024;  ///< waiting scans per shard
  bool record_latency = false;  ///< sample enqueue->processed latency
};

/// Optional observability wiring. Both pointers may be null (the engine
/// then runs un-instrumented); when set they must outlive the engine.
struct ObsHooks {
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Outcome of one ingest_batch call. Per-scan results are asynchronous;
/// they land in the per-trip / aggregate IngestStats. Every submitted
/// scan is enqueued (a full queue blocks), so enqueued == submitted.
struct BatchIngestResult {
  std::size_t submitted = 0;
  std::size_t enqueued = 0;
};

class IngestEngine {
 public:
  /// Per-route shared structures (owned by the server; immutable and
  /// internally thread-safe for concurrent const use across shards).
  struct RouteBinding {
    const roadnet::BusRoute* route = nullptr;
    const svd::PositioningIndex* index = nullptr;
    const SvdPositioner* positioner = nullptr;
  };

  IngestEngine(MobilityFilterParams filter, IngestGuardParams guard,
               IngestEngineParams params = {}, ObsHooks hooks = {});
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Registers a route. Call before any trip on it begins; bindings must
  /// outlive the engine.
  void bind_route(roadnet::RouteId id, RouteBinding binding);

  // -- trip lifecycle (inline, ordered after the trip's queued scans) ----

  /// Throws StateError on duplicate trip, NotFound on unknown route.
  void begin_trip(roadnet::TripId trip, roadnet::RouteId route);
  /// Flushes the reorder buffer and closes the trip. Throws NotFound.
  void end_trip(roadnet::TripId trip);
  /// Releases the trip's reorder buffer into its tracker. Throws NotFound.
  void flush_trip(roadnet::TripId trip);

  bool has_trip(roadnet::TripId trip) const;
  roadnet::RouteId route_of(roadnet::TripId trip) const;  ///< throws NotFound

  // -- scan submission ---------------------------------------------------

  /// Serial API: processes one scan inline and returns its result. In
  /// threaded mode it first waits for the trip's shard to drain, so it
  /// is ordered after everything already enqueued for the shard.
  IngestResult ingest(roadnet::TripId trip, const rf::WifiScan& scan);

  /// Batched API: enqueues every submission (FIFO per shard), blocking
  /// while a shard's queue is full. Returns once all items are enqueued.
  BatchIngestResult ingest_batch(std::span<const ScanSubmission> batch);

  /// Blocks until every submission made so far has been processed.
  void drain();

  /// Completed segment observations whose global order is final, in
  /// serial submission order. After drain() this is every pending
  /// observation.
  std::vector<TravelObservation> take_ready_observations();

  // -- queries (safe concurrent with ingest workers) ---------------------

  std::optional<double> position(roadnet::TripId trip) const;
  std::vector<Fix> fixes(roadnet::TripId trip) const;  ///< snapshot copy
  IngestStats trip_stats(roadnet::TripId trip) const;
  /// Server-wide ingest state, gathered in one pass that takes each
  /// shard's state mutex once.
  struct Totals {
    /// Aggregate over every trip plus orphan (unknown-/closed-trip)
    /// rejections. accounted() holds whenever the engine is idle.
    IngestStats stats;
    /// Heap bytes of every trip's tracker and guard (heap_bytes()).
    std::size_t trip_state_bytes = 0;
  };
  Totals totals() const;

  /// Direct tracker and guard access for tests/benches. Requires the
  /// engine to be drained (no worker may be touching the trip).
  const BusTracker& tracker(roadnet::TripId trip) const;
  const IngestGuard& guard(roadnet::TripId trip) const;

  std::size_t shard_count() const { return shards_.size(); }
  bool threaded() const { return params_.workers > 0; }

  /// Enqueue->processed latency samples (seconds) gathered since the
  /// last call. Empty unless params.record_latency.
  std::vector<double> take_latency_samples();

 private:
  using Clock = std::chrono::steady_clock;

  /// One queued scan.
  struct Job {
    roadnet::TripId trip{0};
    rf::WifiScan scan;
    std::uint64_t seq = 0;
    Clock::time_point enqueued_at{};
  };

  struct TripRuntime {
    roadnet::RouteId route;
    std::unique_ptr<BusTracker> tracker;
    std::unique_ptr<IngestGuard> guard;
    bool active = true;
  };

  struct TaggedObs {
    std::uint64_t seq;
    roadnet::TripId trip;
    TravelObservation obs;
  };

  /// No job in flight (idle shard) — frontier sentinel.
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  struct Shard {
    // Queue side (producer <-> worker handshake).
    mutable std::mutex queue_mu;
    std::condition_variable cv_work;   ///< worker: jobs available
    std::condition_variable cv_room;   ///< producers: capacity freed
    std::condition_variable cv_done;   ///< drain: queue emptied
    std::deque<Job> queue;
    std::uint64_t enqueued = 0;
    std::uint64_t processed = 0;
    bool stop = false;

    /// Sequence number of the oldest queued scan this shard has not
    /// finished processing; kIdle when quiescent. Observations with
    /// seq < min-over-shards(frontier) have final global order. Inline
    /// ops need no frontier entry: they hold the sequencing lock, so no
    /// later submission exists until they finish.
    std::atomic<std::uint64_t> frontier{kIdle};

    // State side (trip runtimes; locked per drained batch, per inline
    // op and by queries — striped across shards, uncontended on the hot
    // path).
    mutable std::mutex state_mu;
    std::unordered_map<roadnet::TripId, TripRuntime> trips;
    IngestStats orphan;
    std::deque<TaggedObs> pending;  ///< seq ascending
    std::vector<double> latencies_s;

    std::thread worker;
  };

  Shard& shard_of(roadnet::TripId trip);
  const Shard& shard_of(roadnet::TripId trip) const;

  void worker_loop(Shard& shard);
  /// Blocks until every scan queued on the shard has been processed
  /// (no-op in serial mode, where nothing is ever queued).
  void drain_shard(Shard& shard);
  /// Runs `op(shard, seq)` inline: takes the next sequence number and
  /// holds the sequencing lock while the trip's shard drains and `op`
  /// runs under its state mutex, so the op is one step of the global
  /// submission order. Exceptions from `op` propagate to the caller.
  template <class Op>
  auto run_inline(roadnet::TripId trip, Op&& op);
  /// Processes one scan with state_mu held: guard + tracker, counters
  /// and the latency sample (measured from `submitted_at`).
  IngestResult process_scan(Shard& shard, roadnet::TripId trip,
                            const rf::WifiScan& scan, std::uint64_t seq,
                            Clock::time_point submitted_at);
  void harvest(Shard& shard, roadnet::TripId trip_id, TripRuntime& trip,
               std::uint64_t seq);
  /// Records one span event when tracing is wired and enabled.
  void trace(obs::TraceStage stage, std::uint64_t seq, roadnet::TripId trip,
             double t) const {
    if (hooks_.tracer != nullptr)
      hooks_.tracer->record({seq, trip.value(), stage, t});
  }
  /// Enqueues one scan under the already-held sequencing lock, blocking
  /// while the shard's queue is full.
  void enqueue(Shard& shard, Job&& job);

  MobilityFilterParams filter_params_;
  IngestGuardParams guard_params_;
  IngestEngineParams params_;
  ObsHooks hooks_;
  obs::Counter* m_enqueued_ = nullptr;    ///< engine.enqueued (scans)
  obs::HistogramMetric* m_queue_depth_ = nullptr;  ///< engine.queue_depth
  obs::HistogramMetric* m_latency_us_ = nullptr;   ///< engine.latency_us
  std::unordered_map<roadnet::RouteId, RouteBinding> routes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Serializes sequence-number assignment with queue insertion so the
  /// global submission order is well defined across producer threads.
  std::mutex submit_mu_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace wiloc::core
