#include "core/ingest_engine.hpp"

#include <algorithm>
#include <string>

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

/// The runtime of a registered trip in its shard's map (const or not);
/// throws NotFound when the trip was never begun.
template <class Trips>
auto& find_trip(Trips& trips, roadnet::TripId trip) {
  const auto it = trips.find(trip);
  if (it == trips.end())
    throw NotFound("unknown trip " + std::to_string(trip.value()));
  return it->second;
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
    m_enqueued_ = &reg->counter("engine.enqueued");
    m_queue_depth_ = &reg->histogram("engine.queue_depth");
    m_latency_us_ = &reg->histogram("engine.latency_us");
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

void IngestEngine::enqueue(Shard& shard, Job&& job) {
  std::unique_lock<std::mutex> lock(shard.queue_mu);
  shard.cv_room.wait(lock, [&] {
    return shard.queue.size() < params_.queue_capacity;
  });
  const std::uint64_t seq = job.seq;
  shard.queue.push_back(std::move(job));
  ++shard.enqueued;
  if (m_queue_depth_ != nullptr)
    m_queue_depth_->record(static_cast<double>(shard.queue.size()));
  // An idle shard's frontier snaps down to the new head-of-queue. A busy
  // worker's frontier is already below any freshly assigned seq.
  if (seq < shard.frontier.load(std::memory_order_relaxed))
    shard.frontier.store(seq, std::memory_order_release);
  shard.cv_work.notify_one();
}

BatchIngestResult IngestEngine::ingest_batch(
    std::span<const ScanSubmission> batch) {
  std::lock_guard<std::mutex> seq_lock(submit_mu_);
  for (const ScanSubmission& sub : batch) {
    const std::uint64_t seq = next_seq_++;
    const Clock::time_point now =
        params_.record_latency ? Clock::now() : Clock::time_point{};
    if (m_enqueued_ != nullptr) m_enqueued_->inc();
    Shard& shard = shard_of(sub.trip);
    if (threaded()) {
      enqueue(shard, {sub.trip, sub.scan, seq, now});
    } else {
      std::lock_guard<std::mutex> state_lock(shard.state_mu);
      process_scan(shard, sub.trip, sub.scan, seq, now);
    }
  }
  return {batch.size(), batch.size()};
}

template <class Op>
auto IngestEngine::run_inline(roadnet::TripId trip, Op&& op) {
  std::lock_guard<std::mutex> seq_lock(submit_mu_);
  const std::uint64_t seq = next_seq_++;
  Shard& shard = shard_of(trip);
  drain_shard(shard);
  std::lock_guard<std::mutex> state_lock(shard.state_mu);
  return op(shard, seq);
}

IngestResult IngestEngine::ingest(roadnet::TripId trip,
                                  const rf::WifiScan& scan) {
  const Clock::time_point now =
      params_.record_latency ? Clock::now() : Clock::time_point{};
  if (m_enqueued_ != nullptr) m_enqueued_->inc();
  return run_inline(trip, [&](Shard& shard, std::uint64_t seq) {
    return process_scan(shard, trip, scan, seq, now);
  });
}

void IngestEngine::begin_trip(roadnet::TripId trip, roadnet::RouteId route) {
  run_inline(trip, [&](Shard& shard, std::uint64_t) {
    const auto rb = routes_.find(route);
    if (rb == routes_.end())
      throw NotFound("unknown route " + std::to_string(route.value()));
    if (shard.trips.count(trip) != 0)
      throw StateError("trip " + std::to_string(trip.value()) +
                       " already registered");
    TripRuntime tr;
    tr.route = route;
    tr.tracker = std::make_unique<BusTracker>(
        *rb->second.route, *rb->second.positioner, filter_params_);
    tr.guard = std::make_unique<IngestGuard>(*tr.tracker, *rb->second.index,
                                             guard_params_);
    shard.trips.emplace(trip, std::move(tr));
  });
}

void IngestEngine::end_trip(roadnet::TripId trip) {
  run_inline(trip, [&](Shard& shard, std::uint64_t seq) {
    TripRuntime& rt = find_trip(shard.trips, trip);
    // A closed trip's buffer is already empty: end flushes only once.
    if (!rt.active) return;
    rt.guard->flush();
    harvest(shard, trip, rt, seq);
    rt.active = false;
  });
}

void IngestEngine::flush_trip(roadnet::TripId trip) {
  run_inline(trip, [&](Shard& shard, std::uint64_t seq) {
    TripRuntime& rt = find_trip(shard.trips, trip);
    // Works on closed trips too (the buffer is empty; harmless).
    rt.guard->flush();
    harvest(shard, trip, rt, seq);
  });
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
      // can hold the shard state lock (queries, inline ops).
      batch.clear();
      while (!shard.queue.empty() && batch.size() < kMaxBatch) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      shard.frontier.store(batch.front().seq, std::memory_order_release);
      shard.cv_room.notify_all();
    }
    {
      // One state-lock acquisition per batch: consecutive scans of the
      // same shard share the guard/tracker cachelines and the
      // thread-local locate scratch (posting-list stamps, candidate
      // sets, memo) without re-locking per job.
      std::lock_guard<std::mutex> state_lock(shard.state_mu);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Job& job = batch[i];
        process_scan(shard, job.trip, job.scan, job.seq, job.enqueued_at);
        // Advance the frontier past the finished job so its observations
        // become publishable; the release store pairs with the acquire
        // load in take_ready_observations.
        if (i + 1 < batch.size())
          shard.frontier.store(batch[i + 1].seq, std::memory_order_release);
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

IngestResult IngestEngine::process_scan(Shard& shard, roadnet::TripId trip,
                                        const rf::WifiScan& scan,
                                        std::uint64_t seq,
                                        Clock::time_point submitted_at) {
  trace(obs::TraceStage::ingest, seq, trip, scan.time);
  IngestResult result;
  const auto it = shard.trips.find(trip);
  if (it == shard.trips.end() || !it->second.active) {
    const RejectReason reason = it == shard.trips.end()
                                    ? RejectReason::unknown_trip
                                    : RejectReason::closed_trip;
    ++shard.orphan.submitted;
    ++shard.orphan.rejected_by_reason[static_cast<std::size_t>(reason)];
    result = {IngestStatus::rejected, reason, std::nullopt, 0};
  } else {
    result = it->second.guard->submit(scan);
    if (result.released > 0)
      trace(obs::TraceStage::locate, seq, trip, scan.time);
    if (result.fix.has_value())
      trace(obs::TraceStage::fix, seq, trip, result.fix->time);
    harvest(shard, trip, it->second, seq);
  }
  if (params_.record_latency) {
    const double dt_s =
        std::chrono::duration<double>(Clock::now() - submitted_at).count();
    shard.latencies_s.push_back(dt_s);
    if (m_latency_us_ != nullptr) m_latency_us_->record(dt_s * 1e6);
  }
  return result;
}

void IngestEngine::harvest(Shard& shard, roadnet::TripId trip_id,
                           TripRuntime& trip, std::uint64_t seq) {
  for (TravelObservation& obs : trip.tracker->drain_segments()) {
    trace(obs::TraceStage::observe, seq, trip_id, obs.exit_time);
    shard.pending.push_back({seq, trip_id, obs});
  }
}

// -- drain & hand-off ----------------------------------------------------

void IngestEngine::drain_shard(Shard& shard) {
  if (!threaded()) return;
  std::unique_lock<std::mutex> lock(shard.queue_mu);
  shard.cv_done.wait(lock, [&] {
    return shard.processed == shard.enqueued && shard.queue.empty();
  });
}

void IngestEngine::drain() {
  for (auto& shard : shards_) drain_shard(*shard);
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
  return find_trip(shard.trips, trip).route;
}

std::optional<double> IngestEngine::position(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  return find_trip(shard.trips, trip).tracker->current_offset();
}

std::vector<Fix> IngestEngine::fixes(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  const FixLog& log = find_trip(shard.trips, trip).tracker->fixes();
  return {log.begin(), log.end()};
}

IngestStats IngestEngine::trip_stats(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  return find_trip(shard.trips, trip).guard->stats();
}

IngestEngine::Totals IngestEngine::totals() const {
  Totals total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    total.stats += shard->orphan;
    for (const auto& [id, tr] : shard->trips) {
      total.stats += tr.guard->stats();
      total.trip_state_bytes +=
          tr.tracker->heap_bytes() + tr.guard->heap_bytes();
    }
  }
  return total;
}

const BusTracker& IngestEngine::tracker(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  return *find_trip(shard.trips, trip).tracker;
}

const IngestGuard& IngestEngine::guard(roadnet::TripId trip) const {
  const Shard& shard = shard_of(trip);
  std::lock_guard<std::mutex> lock(shard.state_mu);
  return *find_trip(shard.trips, trip).guard;
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
