#include "core/ingest_engine.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace wiloc::core {

namespace {

/// Jobs a worker drains per shard-state lock acquisition (see worker_loop).
constexpr std::size_t kMaxBatch = 128;

// splitmix64 finalizer: sequential trip ids must spread across shards.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

IngestEngine::IngestEngine(MobilityFilterParams filter,
                           IngestGuardParams guard,
                           IngestEngineParams params, ObsHooks hooks)
    : filter_params_(filter),
      guard_params_(guard),
      params_(params),
      hooks_(hooks) {
  WILOC_EXPECTS(params_.queue_capacity >= 1);
  const std::size_t n = params_.workers == 0 ? 1 : params_.workers;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
  if (obs::Registry* reg = hooks_.registry) {
    guard_metrics_ = GuardMetrics::registered(*reg);
    m_enqueued_ = &reg->counter("engine.enqueued");
    m_processed_ = &reg->counter("engine.processed");
    m_backpressure_ = &reg->counter("engine.rejected_backpressure");
    m_observations_ = &reg->counter("engine.observations");
    m_queue_depth_ = &reg->histogram("engine.queue_depth");
    m_latency_us_ = &reg->histogram("engine.latency_us");
    for (std::size_t i = 0; i < shards_.size(); ++i)
      shards_[i]->depth_gauge = &reg->gauge(
          "engine.shard" + std::to_string(i) + ".queue_depth");
  }
  if (threaded()) {
    for (auto& shard : shards_) {
      Shard& s = *shard;
      s.worker = std::thread([this, &s] { worker_loop(s); });
    }
  }
}

IngestEngine::~IngestEngine() {
  // Drain-on-shutdown: workers exit only once their queue is empty.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->queue_mu);
      shard->stop = true;
    }
    shard->cv_work.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void IngestEngine::bind_route(roadnet::RouteId id, RouteBinding binding) {
  WILOC_EXPECTS(binding.route != nullptr);
  WILOC_EXPECTS(binding.index != nullptr);
  WILOC_EXPECTS(binding.positioner != nullptr);
  routes_.emplace(id, binding);
}

IngestEngine::Shard& IngestEngine::shard_of(roadnet::TripId trip) {
  return *shards_[mix(trip.value()) % shards_.size()];
}

const IngestEngine::Shard& IngestEngine::shard_of(
    roadnet::TripId trip) const {
  return *shards_[mix(trip.value()) % shards_.size()];
}

// -- submission ----------------------------------------------------------

bool IngestEngine::enqueue(Shard& shard, Job&& job) {
  std::unique_lock<std::mutex> lock(shard.queue_mu);
  if (shard.queue.size() >= params_.queue_capacity) {
    const bool block = params_.block_on_full || job.kind != JobKind::scan ||
                       job.slot != nullptr;
    if (!block) return false;  // backpressure: caller counts the drop
    shard.cv_room.wait(lock, [&] {
      return shard.queue.size() < params_.queue_capacity;
    });
  }
  const std::uint64_t seq = job.seq;
  shard.queue.push_back(std::move(job));
  ++shard.enqueued;
  if (m_queue_depth_ != nullptr) {
    const auto depth = static_cast<double>(shard.queue.size());
    m_queue_depth_->record(depth);
    shard.depth_gauge->set(depth);
  }
  // An idle shard's frontier snaps down to the new head-of-queue. A busy
  // worker's frontier is already below any freshly assigned seq.
  if (seq < shard.frontier.load(std::memory_order_relaxed))
    shard.frontier.store(seq, std::memory_order_release);
  shard.cv_work.notify_one();
  return true;
}

IngestResult IngestEngine::ingest(roadnet::TripId trip,
                                  const rf::WifiScan& scan) {
  Job job;
  job.kind = JobKind::scan;
  job.trip = trip;
  job.scan = scan;
  SyncSlot slot;
  job.slot = &slot;
  run_sync(std::move(job));
  return slot.result;
}

BatchIngestResult IngestEngine::ingest_batch(
    std::span<const ScanSubmission> batch) {
  BatchIngestResult out;
  out.submitted = batch.size();
  std::lock_guard<std::mutex> seq_lock(submit_mu_);
  for (const ScanSubmission& sub : batch) {
    Job job;
    job.kind = JobKind::scan;
    job.trip = sub.trip;
    job.scan = sub.scan;
    job.seq = next_seq_++;
    if (params_.record_latency) job.enqueued_at = Clock::now();
    Shard& shard = shard_of(sub.trip);
    if (!threaded()) {
      if (m_enqueued_ != nullptr) m_enqueued_->inc();
      process(shard, job);
      ++out.enqueued;
    } else if (enqueue(shard, std::move(job))) {
      if (m_enqueued_ != nullptr) m_enqueued_->inc();
      ++out.enqueued;
    } else {
      if (m_backpressure_ != nullptr) m_backpressure_->inc();
      ++out.rejected_backpressure;
    }
  }
  return out;
}

void IngestEngine::run_sync(Job job) {
  SyncSlot local;
  if (job.slot == nullptr) job.slot = &local;
  SyncSlot& slot = *job.slot;
  Shard& shard = shard_of(job.trip);
  if (m_enqueued_ != nullptr && job.kind == JobKind::scan) m_enqueued_->inc();
  if (!threaded()) {
    {
      std::lock_guard<std::mutex> seq_lock(submit_mu_);
      job.seq = next_seq_++;
    }
    if (params_.record_latency && job.kind == JobKind::scan)
      job.enqueued_at = Clock::now();
    process(shard, job);
    slot.done = true;
  } else {
    {
      std::lock_guard<std::mutex> seq_lock(submit_mu_);
      job.seq = next_seq_++;
      if (params_.record_latency && job.kind == JobKind::scan)
        job.enqueued_at = Clock::now();
      enqueue(shard, std::move(job));  // sync jobs always block for room
    }
    std::unique_lock<std::mutex> lock(shard.queue_mu);
    shard.cv_done.wait(lock, [&] { return slot.done; });
  }
  if (slot.error == 1) throw NotFound(slot.message);
  if (slot.error == 2) throw StateError(slot.message);
}

void IngestEngine::begin_trip(roadnet::TripId trip, roadnet::RouteId route) {
  Job job;
  job.kind = JobKind::begin;
  job.trip = trip;
  job.route = route;
  run_sync(std::move(job));
}

void IngestEngine::end_trip(roadnet::TripId trip) {
  Job job;
  job.kind = JobKind::end;
  job.trip = trip;
  run_sync(std::move(job));
}

void IngestEngine::flush_trip(roadnet::TripId trip) {
  Job job;
  job.kind = JobKind::flush;
  job.trip = trip;
  run_sync(std::move(job));
}

// -- worker --------------------------------------------------------------

void IngestEngine::worker_loop(Shard& shard) {
  std::vector<Job> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(shard.queue_mu);
      shard.cv_work.wait(lock,
                         [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) {
        if (shard.stop) return;
        continue;
      }
      // Drain up to kMaxBatch jobs; the cap bounds how long one batch
      // can hold the shard state lock (queries, sync submissions).
      batch.clear();
      while (!shard.queue.empty() && batch.size() < kMaxBatch) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      if (shard.depth_gauge != nullptr)
        shard.depth_gauge->set(static_cast<double>(shard.queue.size()));
      shard.frontier.store(batch.front().seq, std::memory_order_release);
      shard.cv_room.notify_all();
    }
    {
      // One state-lock acquisition per batch: consecutive scans of the
      // same shard share the guard/tracker cachelines and the
      // thread-local locate scratch (posting-list stamps, candidate
      // sets, memo) without re-locking per job. Lock order is
      // state_mu -> queue_mu (sync-slot signaling); no other path takes
      // them in the reverse order.
      std::lock_guard<std::mutex> state_lock(shard.state_mu);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        process_locked(shard, batch[i]);
        // Advance the frontier past the finished job so its observations
        // become publishable; the release store pairs with the acquire
        // load in take_ready_observations.
        if (i + 1 < batch.size())
          shard.frontier.store(batch[i + 1].seq, std::memory_order_release);
        if (batch[i].slot != nullptr) {
          std::lock_guard<std::mutex> lock(shard.queue_mu);
          batch[i].slot->done = true;
          shard.cv_done.notify_all();
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      shard.processed += batch.size();
      shard.frontier.store(
          shard.queue.empty() ? kIdle : shard.queue.front().seq,
          std::memory_order_release);
      shard.cv_done.notify_all();
    }
  }
}

void IngestEngine::process(Shard& shard, Job& job) {
  std::lock_guard<std::mutex> lock(shard.state_mu);
  process_locked(shard, job);
}

void IngestEngine::process_locked(Shard& shard, Job& job) {
  switch (job.kind) {
    case JobKind::scan: {
      const IngestResult result = process_scan(shard, job);
      if (job.slot != nullptr) job.slot->result = result;
      if (m_processed_ != nullptr) m_processed_->inc();
      if (params_.record_latency) {
        const double dt_s =
            std::chrono::duration<double>(Clock::now() - job.enqueued_at)
                .count();
        shard.latencies_s.push_back(dt_s);
        if (m_latency_us_ != nullptr) m_latency_us_->record(dt_s * 1e6);
      }
      break;
    }
    case JobKind::begin: {
      const auto rb = routes_.find(job.route);
      if (rb == routes_.end()) {
        job.slot->error = 1;
        job.slot->message =
            "unknown route " + std::to_string(job.route.value());
        break;
      }
      if (shard.trips.count(job.trip) != 0) {
        job.slot->error = 2;
        job.slot->message = "trip " + std::to_string(job.trip.value()) +
                            " already registered";
        break;
      }
      TripRuntime tr;
      tr.route = job.route;
      tr.tracker = std::make_unique<BusTracker>(
          *rb->second.route, *rb->second.positioner, filter_params_);
      tr.guard = std::make_unique<IngestGuard>(
          *tr.tracker, *rb->second.index, guard_params_,
          hooks_.registry != nullptr ? &guard_metrics_ : nullptr);
      shard.trips.emplace(job.trip, std::move(tr));
      break;
    }
    case JobKind::flush:
    case JobKind::end: {
      const auto it = shard.trips.find(job.trip);
      if (it == shard.trips.end()) {
        job.slot->error = 1;
        job.slot->message =
            "unknown trip " + std::to_string(job.trip.value());
        break;
      }
      // flush works on closed trips too (buffer is empty; harmless);
      // end flushes only while the trip is still open.
      if (job.kind == JobKind::flush || it->second.active) {
        it->second.guard->flush();
        harvest(shard, job.trip, it->second, job.seq);
      }
      if (job.kind == JobKind::end) it->second.active = false;
      break;
    }
  }
}

IngestResult IngestEngine::process_scan(Shard& shard, const Job& job) {
  trace(obs::TraceStage::ingest, job.seq, job.trip, job.scan.time);
  const auto it = shard.trips.find(job.trip);
  if (it == shard.trips.end()) {
    ++shard.orphan.submitted;
    ++shard.orphan.rejected_by_reason[static_cast<std::size_t>(
        RejectReason::unknown_trip)];
    if (guard_metrics_.submitted != nullptr) {
      guard_metrics_.submitted->inc();
      guard_metrics_.count_rejected(RejectReason::unknown_trip);
    }
    return {IngestStatus::rejected, RejectReason::unknown_trip,
            std::nullopt, 0};
  }
  if (!it->second.active) {
    ++shard.orphan.submitted;
    ++shard.orphan.rejected_by_reason[static_cast<std::size_t>(
        RejectReason::closed_trip)];
    if (guard_metrics_.submitted != nullptr) {
      guard_metrics_.submitted->inc();
      guard_metrics_.count_rejected(RejectReason::closed_trip);
    }
    return {IngestStatus::rejected, RejectReason::closed_trip,
            std::nullopt, 0};
  }
  const IngestResult result = it->second.guard->submit(job.scan);
  if (result.released > 0)
    trace(obs::TraceStage::locate, job.seq, job.trip, job.scan.time);
  if (result.fix.has_value())
    trace(obs::TraceStage::fix, job.seq, job.trip, result.fix->time);
  harvest(shard, job.trip, it->second, job.seq);
  return result;
}

void IngestEngine::harvest(Shard& shard, roadnet::TripId trip_id,
                           TripRuntime& trip, std::uint64_t seq) {
  for (TravelObservation& obs : trip.tracker->drain_segments()) {
    if (m_observations_ != nullptr) m_observations_->inc();
    trace(obs::TraceStage::observe, seq, trip_id, obs.exit_time);
    shard.pending.push_back({seq, trip_id, obs});
  }
}

// -- drain & hand-off ----------------------------------------------------

void IngestEngine::drain() {
  if (!threaded()) return;
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::unique_lock<std::mutex> lock(s.queue_mu);
    s.cv_done.wait(lock, [&] {
      return s.processed == s.enqueued && s.queue.empty();
    });
  }
}

std::vector<TravelObservation> IngestEngine::take_ready_observations() {
  std::uint64_t frontier = kIdle;
  for (const auto& shard : shards_)
    frontier = std::min(frontier,
                        shard->frontier.load(std::memory_order_acquire));
  std::vector<TaggedObs> ready;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    while (!shard->pending.empty() &&
           shard->pending.front().seq < frontier) {
      ready.push_back(std::move(shard->pending.front()));
      shard->pending.pop_front();
    }
  }
  // Per-shard runs are seq-ascending; a stable sort merges them into the
  // global submission order (ties = one submission yielding several
  // observations; stability keeps their tracker order).
  std::stable_sort(ready.begin(), ready.end(),
                   [](const TaggedObs& a, const TaggedObs& b) {
                     return a.seq < b.seq;
                   });
  std::vector<TravelObservation> out;
  out.reserve(ready.size());
  for (TaggedObs& tagged : ready) {
    trace(obs::TraceStage::release, tagged.seq, tagged.trip,
          tagged.obs.exit_time);
    out.push_back(tagged.obs);
  }
  return out;
}

// -- queries -------------------------------------------------------------

bool IngestEngine::has_trip(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  return shard.trips.count(trip) != 0;
}

roadnet::RouteId IngestEngine::route_of(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return it->second.route;
}

std::optional<double> IngestEngine::position(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return it->second.tracker->current_offset();
}

std::vector<Fix> IngestEngine::fixes(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return it->second.tracker->fixes();
}

IngestStats IngestEngine::trip_stats(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return it->second.guard->stats();
}

IngestStats IngestEngine::total_stats() const {
  IngestStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    total += shard->orphan;
    for (const auto& [id, tr] : shard->trips) total += tr.guard->stats();
  }
  return total;
}

const BusTracker& IngestEngine::tracker(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return *it->second.tracker;
}

std::vector<double> IngestEngine::take_latency_samples() {
  std::vector<double> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    out.insert(out.end(), shard->latencies_s.begin(),
               shard->latencies_s.end());
    shard->latencies_s.clear();
  }
  return out;
}

}  // namespace wiloc::core
