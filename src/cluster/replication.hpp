// Journal-tailing replication: pull peers' learned state into this node.
//
// The paper's Eq. 3-5 prediction chain corrects a segment's historical
// mean with *recent* traversals of that segment by buses of any route —
// so in a trip-sharded cluster, the recents a peer node learns on an
// overlapped segment must reach every node that predicts over it.
// ReplicationTailer is the pull side: one background thread round-robins
// the peer list, GETs each peer's /v1/replication/segments page after
// its local watermark, and applies the returned journal frames through
// the local service's idempotent apply path (ObservationKey dedup for
// history, exact-duplicate rejection for recents). Idempotence is the
// whole correctness story: watermarks live in memory only, a restarted
// tailer re-tails from zero, overlapped pages double-deliver — and the
// stores still converge.
//
// Gaps: a node's sequence numbers are contiguous, so first_seq jumping
// past the watermark means the peer compacted those records into a
// snapshot before we read them (X-Compacted-Through confirms it). The
// tailer counts the gap (repl.gaps) and resumes from the compaction
// point — bounded staleness, empty in steady state because peers poll
// orders of magnitude faster than checkpoints compact.
//
// A dead peer is not fatal: the poll fails, the peer is reported
// unreachable in lag() (surfaced through /readyz), and polling simply
// continues — when the peer restarts and recovers, its journal sequence
// resumes past the snapshot watermark and tailing picks up where it
// left off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "net/http_client.hpp"
#include "net/service.hpp"
#include "util/obs.hpp"

namespace wiloc::cluster {

struct ReplicationOptions {
  /// Wall-clock pause between full passes over the peer list (a
  /// truncated page re-polls the same peer immediately).
  double poll_interval_s = 0.05;
  net::HttpClientOptions client;  ///< timeouts for the tail GETs
};

class ReplicationTailer {
 public:
  /// Tails `peers` into `local`. The service must outlive the tailer;
  /// metrics land in `registry` as repl.* when non-null.
  ReplicationTailer(net::WiLocatorService& local, std::vector<NodeInfo> peers,
                    ReplicationOptions options = {},
                    obs::Registry* registry = nullptr);
  ~ReplicationTailer();

  ReplicationTailer(const ReplicationTailer&) = delete;
  ReplicationTailer& operator=(const ReplicationTailer&) = delete;

  /// Starts the tailing thread and wires the local /readyz lag report.
  void start();
  /// Signals and joins the thread. Idempotent; never throws.
  void stop() noexcept;

  /// Per-peer replication progress (what /readyz publishes).
  std::vector<net::PeerLag> lag() const;

  /// Records applied locally (new here) since start.
  std::uint64_t records_applied() const {
    return applied_.load(std::memory_order_relaxed);
  }
  /// Sequence gaps skipped because the peer compacted first.
  std::uint64_t gaps() const { return gaps_.load(std::memory_order_relaxed); }

  /// True when every reachable peer was caught up at its last poll.
  bool caught_up() const;

 private:
  struct PeerProgress {
    std::uint64_t watermark = 0;      ///< highest seq applied from the peer
    std::uint64_t peer_head_seq = 0;  ///< peer's last_seq at the last poll
    double caught_up_wall_s = 0.0;    ///< when records_behind last hit 0
    bool reachable = false;
    bool ever_polled = false;
  };

  void loop();
  /// One tail poll against peer i. Returns true when the page was
  /// truncated (more data ready — poll again without sleeping).
  bool poll_peer(std::size_t i);
  double wall_s() const;

  net::WiLocatorService& local_;
  std::vector<NodeInfo> peers_;
  ReplicationOptions options_;

  /// Tailer-thread only (constructed lazily there).
  std::vector<std::unique_ptr<net::HttpClient>> clients_;

  mutable std::mutex progress_mu_;
  std::vector<PeerProgress> progress_;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::mutex cv_mu_;
  std::condition_variable cv_;

  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> gaps_{0};

  // repl.* metric handles (null without a registry).
  obs::Counter* m_polls_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_gaps_ = nullptr;
  obs::Gauge* m_lag_records_ = nullptr;
};

}  // namespace wiloc::cluster
