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
//  - begin/end/flush ride the same queues as scans: a scan enqueued
//    before end_trip(t) is processed before the trip closes, exactly as
//    in a serial call sequence.
//  - Completed segment observations are tagged with the sequence number
//    of the submission that produced them and handed over in global
//    sequence order (take_ready_observations releases only the prefix
//    below every shard's processing frontier). The store therefore sees
//    observations in the same order a serial server would insert them.
//  - With workers == 0 the engine degenerates to inline execution on the
//    caller thread: the exact serial pipeline, byte-identical to the
//    pre-engine server. With workers >= 1 a drained engine has produced
//    byte-identical per-trip fixes, stats, and observation order.
//
// Backpressure: each shard's queue is bounded. ingest_batch either
// blocks for room (default, lossless) or rejects the overflow and
// reports it in the BatchIngestResult.
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
#include <string>
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
  std::size_t queue_capacity = 1024;  ///< waiting jobs per shard
  bool block_on_full = true;  ///< false: reject overflow (backpressure)
  bool record_latency = false;  ///< sample enqueue->processed latency
};

/// Optional observability wiring. Both pointers may be null (the engine
/// then runs un-instrumented); when set they must outlive the engine.
struct ObsHooks {
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Outcome of one ingest_batch call. Per-scan results are asynchronous;
/// they land in the per-trip / aggregate IngestStats.
struct BatchIngestResult {
  std::size_t submitted = 0;
  std::size_t enqueued = 0;
  std::size_t rejected_backpressure = 0;  ///< only when !block_on_full
  bool complete() const { return enqueued == submitted; }
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

  // -- trip lifecycle (ordered with scans, synchronous) ------------------

  /// Throws StateError on duplicate trip, NotFound on unknown route.
  void begin_trip(roadnet::TripId trip, roadnet::RouteId route);
  /// Flushes the reorder buffer and closes the trip. Throws NotFound.
  void end_trip(roadnet::TripId trip);
  /// Releases the trip's reorder buffer into its tracker. Throws NotFound.
  void flush_trip(roadnet::TripId trip);

  bool has_trip(roadnet::TripId trip) const;
  roadnet::RouteId route_of(roadnet::TripId trip) const;  ///< throws NotFound

  // -- scan submission ---------------------------------------------------

  /// Serial API: submits one scan and waits for its result. In threaded
  /// mode this rides the shard queue (ordered after everything already
  /// enqueued for the shard).
  IngestResult ingest(roadnet::TripId trip, const rf::WifiScan& scan);

  /// Batched API: enqueues every submission (FIFO per shard). Returns
  /// once all items are enqueued (or rejected under backpressure).
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
  /// Aggregate over every trip plus orphan (unknown-/closed-trip)
  /// rejections. accounted() holds whenever the engine is idle.
  IngestStats total_stats() const;

  /// Direct tracker access for tests/benches. Requires the engine to be
  /// drained (no worker may be touching the trip).
  const BusTracker& tracker(roadnet::TripId trip) const;

  std::size_t shard_count() const { return shards_.size(); }
  bool threaded() const { return params_.workers > 0; }

  /// Enqueue->processed latency samples (seconds) gathered since the
  /// last call. Empty unless params.record_latency.
  std::vector<double> take_latency_samples();

 private:
  using Clock = std::chrono::steady_clock;

  enum class JobKind : std::uint8_t { scan, begin, flush, end };

  /// Result slot for synchronous submissions (lives on the caller's
  /// stack; guarded by the shard queue mutex).
  struct SyncSlot {
    bool done = false;
    IngestResult result;
    int error = 0;  ///< 0 none, 1 NotFound, 2 StateError
    std::string message;
  };

  struct Job {
    JobKind kind = JobKind::scan;
    roadnet::TripId trip{0};
    roadnet::RouteId route{0};  ///< begin only
    rf::WifiScan scan;          ///< scan only
    std::uint64_t seq = 0;
    Clock::time_point enqueued_at{};
    SyncSlot* slot = nullptr;
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
    std::condition_variable cv_done;   ///< drain / sync completion
    std::deque<Job> queue;
    std::uint64_t enqueued = 0;
    std::uint64_t processed = 0;
    bool stop = false;

    /// Sequence number of the oldest submission this shard has not
    /// finished processing; kIdle when quiescent. Observations with
    /// seq < min-over-shards(frontier) have final global order.
    std::atomic<std::uint64_t> frontier{kIdle};

    // State side (trip runtimes; locked per processed job and by
    // queries — striped across shards, uncontended on the hot path).
    mutable std::mutex state_mu;
    std::unordered_map<roadnet::TripId, TripRuntime> trips;
    IngestStats orphan;
    std::deque<TaggedObs> pending;  ///< seq ascending
    std::vector<double> latencies_s;

    obs::Gauge* depth_gauge = nullptr;  ///< engine.shard<k>.queue_depth

    std::thread worker;
  };

  Shard& shard_of(roadnet::TripId trip);
  const Shard& shard_of(roadnet::TripId trip) const;

  void worker_loop(Shard& shard);
  /// Executes one job against the shard state (locks state_mu).
  void process(Shard& shard, Job& job);
  /// Executes one job with state_mu already held — the batched worker
  /// path locks once per drained batch instead of once per job.
  void process_locked(Shard& shard, Job& job);
  IngestResult process_scan(Shard& shard, const Job& job);
  void harvest(Shard& shard, roadnet::TripId trip_id, TripRuntime& trip,
               std::uint64_t seq);
  /// Records one span event when tracing is wired and enabled.
  void trace(obs::TraceStage stage, std::uint64_t seq, roadnet::TripId trip,
             double t) const {
    if (hooks_.tracer != nullptr)
      hooks_.tracer->record({seq, trip.value(), stage, t});
  }
  /// Routes a job to its shard and waits for completion (threaded) or
  /// runs it inline (serial). Rethrows slot errors.
  void run_sync(Job job);
  /// Enqueues one job under an already-held sequencing lock. Returns
  /// false when the queue is full and block_on_full is off.
  bool enqueue(Shard& shard, Job&& job);

  MobilityFilterParams filter_params_;
  IngestGuardParams guard_params_;
  IngestEngineParams params_;
  ObsHooks hooks_;
  /// Shared ingest.* counter bundle; handles are null without a registry.
  GuardMetrics guard_metrics_;
  obs::Counter* m_enqueued_ = nullptr;    ///< engine.enqueued (scans)
  obs::Counter* m_processed_ = nullptr;   ///< engine.processed (scans)
  obs::Counter* m_backpressure_ = nullptr;  ///< engine.rejected_backpressure
  obs::Counter* m_observations_ = nullptr;  ///< engine.observations
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
