#include "cluster/replication.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <span>

#include "util/contracts.hpp"

namespace wiloc::cluster {

namespace {

std::uint64_t header_u64(const net::ClientResponse& response,
                         const char* name) {
  const auto it = response.headers.find(name);
  if (it == response.headers.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace

ReplicationTailer::ReplicationTailer(net::WiLocatorService& local,
                                     std::vector<NodeInfo> peers,
                                     ReplicationOptions options,
                                     obs::Registry* registry)
    : local_(local), peers_(std::move(peers)), options_(options) {
  progress_.resize(peers_.size());
  if (registry != nullptr) {
    m_polls_ = &registry->counter("repl.polls");
    m_errors_ = &registry->counter("repl.errors");
    m_records_ = &registry->counter("repl.records_received");
    m_applied_ = &registry->counter("repl.records_applied");
    m_gaps_ = &registry->counter("repl.gaps");
    m_lag_records_ = &registry->gauge("repl.lag_records");
  }
}

ReplicationTailer::~ReplicationTailer() { stop(); }

void ReplicationTailer::start() {
  WILOC_EXPECTS(!started_);
  started_ = true;
  {
    // Seconds-behind is measured from "last caught up"; before the
    // first successful poll that reference point is start time.
    const std::lock_guard<std::mutex> lock(progress_mu_);
    for (PeerProgress& p : progress_) p.caught_up_wall_s = wall_s();
  }
  local_.set_replication_lag_provider([this] { return lag(); });
  thread_ = std::thread([this] { loop(); });
}

void ReplicationTailer::stop() noexcept {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Leave the lag provider wired: the last-known lag stays visible in
  // /readyz (lag() is safe after the thread is gone).
}

double ReplicationTailer::wall_s() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReplicationTailer::loop() {
  clients_.reserve(peers_.size());
  for (const NodeInfo& peer : peers_)
    clients_.push_back(std::make_unique<net::HttpClient>(
        peer.host, peer.port, options_.client));

  const auto pause =
      std::chrono::duration<double>(std::max(options_.poll_interval_s, 1e-3));
  while (!stopping_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Drain a peer with a backlog page by page before moving on.
      while (poll_peer(i) && !stopping_.load(std::memory_order_acquire)) {
      }
    }
    if (m_lag_records_ != nullptr) {
      std::uint64_t worst = 0;
      for (const net::PeerLag& lag : this->lag())
        worst = std::max(worst, lag.records_behind);
      m_lag_records_->set(static_cast<double>(worst));
    }
    std::unique_lock<std::mutex> lk(cv_mu_);
    cv_.wait_for(lk, pause, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

bool ReplicationTailer::poll_peer(std::size_t i) {
  std::uint64_t after = 0;
  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    after = progress_[i].watermark;
  }
  if (m_polls_ != nullptr) m_polls_->inc();

  net::ClientResponse response;
  try {
    // No max_bytes: pages come at the peer's net::kReplicationPageBytes.
    response = clients_[i]->get("/v1/replication/segments?after=" +
                                std::to_string(after));
  } catch (const Error&) {
    if (m_errors_ != nullptr) m_errors_->inc();
    const std::lock_guard<std::mutex> lock(progress_mu_);
    progress_[i].reachable = false;
    progress_[i].ever_polled = true;
    return false;
  }
  if (response.status != 200) {
    // 404 = peer runs without persistence (nothing to tail); other
    // statuses are transient. Either way the peer *process* answered.
    if (m_errors_ != nullptr && response.status != 404) m_errors_->inc();
    const std::lock_guard<std::mutex> lock(progress_mu_);
    progress_[i].reachable = true;
    progress_[i].ever_polled = true;
    progress_[i].caught_up_wall_s = wall_s();
    return false;
  }

  const std::uint64_t first_seq = header_u64(response, "X-First-Seq");
  const std::uint64_t head_seq = header_u64(response, "X-Head-Seq");
  const std::uint64_t compacted = header_u64(response, "X-Compacted-Through");
  const bool truncated = header_u64(response, "X-Truncated") != 0;

  // Sequence numbers are contiguous per node: a first frame beyond
  // watermark+1 (or an empty page below a higher compaction point)
  // means the peer folded the missing records into a snapshot before we
  // read them. Count the gap and resume from where data exists again.
  std::uint64_t gap_from = after;
  if (first_seq > after + 1 && compacted > after)
    gap_from = std::min(first_seq - 1, compacted);
  else if (response.body.empty() && compacted > after)
    gap_from = compacted;
  if (gap_from > after) {
    gaps_.fetch_add(gap_from - after, std::memory_order_relaxed);
    if (m_gaps_ != nullptr) m_gaps_->inc(gap_from - after);
  }

  net::WiLocatorService::ReplicationApply applied{};
  if (!response.body.empty()) {
    const auto* bytes =
        reinterpret_cast<const std::byte*>(response.body.data());
    applied = local_.apply_replication_frames(
        std::span<const std::byte>(bytes, response.body.size()));
    if (m_records_ != nullptr) m_records_->inc(applied.records);
    if (m_applied_ != nullptr) m_applied_->inc(applied.applied);
    applied_.fetch_add(applied.applied, std::memory_order_relaxed);
  }

  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    PeerProgress& p = progress_[i];
    p.reachable = true;
    p.ever_polled = true;
    p.watermark = std::max({p.watermark, gap_from, applied.last_seq});
    p.peer_head_seq = std::max(head_seq, p.watermark);
    if (!truncated && p.watermark >= p.peer_head_seq)
      p.caught_up_wall_s = wall_s();
  }
  return truncated;
}

std::vector<net::PeerLag> ReplicationTailer::lag() const {
  std::vector<net::PeerLag> out;
  out.reserve(peers_.size());
  const double now = wall_s();
  const std::lock_guard<std::mutex> lock(progress_mu_);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const PeerProgress& p = progress_[i];
    net::PeerLag lag;
    lag.peer = peers_[i].id;
    lag.records_behind =
        p.peer_head_seq > p.watermark ? p.peer_head_seq - p.watermark : 0;
    if (!p.ever_polled) {
      lag.seconds_behind = 0.0;  // no poll yet: nothing meaningful to report
    } else if (lag.records_behind == 0 && p.reachable) {
      lag.seconds_behind = 0.0;
    } else {
      lag.seconds_behind = std::max(0.0, now - p.caught_up_wall_s);
    }
    lag.reachable = p.reachable;
    out.push_back(std::move(lag));
  }
  return out;
}

bool ReplicationTailer::caught_up() const {
  const std::lock_guard<std::mutex> lock(progress_mu_);
  for (const PeerProgress& p : progress_) {
    if (!p.ever_polled) return false;
    if (p.reachable && p.watermark < p.peer_head_seq) return false;
  }
  return true;
}

}  // namespace wiloc::cluster
