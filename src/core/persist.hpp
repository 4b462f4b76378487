// Durable state & crash recovery for the learned travel-time layer.
//
// Everything WiLocator *learns* — per-(edge,route,slot) history means,
// residual statistics, and the cross-route recent-correction rings — is
// what separates a warm server from cold start. StatePersistence makes
// that state crash-tolerant with the classic checkpoint + write-ahead
// split:
//
//  - every observation entering the store is staged for a CRC-framed
//    journal (util/journal), stamped with a monotonic sequence number,
//    and written by the next flush (each publish batch flushes at its
//    end; the history load every kHistoryFlushBytes; every seal first);
//  - periodically (sim-time interval or journal-size trigger; the server
//    consults only the size trigger while history loads) the whole
//    store is serialized into an atomic snapshot file embedding the
//    journal watermark, and the journal it covers is dropped
//    (snapshot-then-compact);
//  - recovery loads the snapshot (if any), then replays journal frames
//    *after* the watermark. A frame at or below the watermark, or an
//    observation the store already holds, is skipped — replay is
//    idempotent, so a crash anywhere inside a checkpoint cannot
//    double-count.
//
// Partial recovery is graceful by construction: a corrupt journal
// record or a torn tail bumps `persist.corrupt` and is skipped; a
// corrupt snapshot bumps the metric and recovery continues from the
// journal alone. Recovery never aborts the server.
//
// Journal staging and flushes always run on the control thread (the
// server's publish/query side), never on the ingest engine's shard
// workers.
// Every checkpoint takes one two-phase protocol, whether it runs inline
// (shutdown, finalize, the recovery fold, the interval trigger) or on a
// background thread:
//
//  - seal_journal(), control thread: flushes staged frames, then
//    atomically rotates the active journal to a sealed side file
//    (appends continue into a fresh journal, ordering preserved by the
//    seq watermark);
//  - commit_checkpoint(), any thread: writes the snapshot (+ fsync) and
//    deletes the sealed file it supersedes. A crash anywhere in the
//    window leaves snapshot+sealed+active journals whose overlap
//    recovery dedups via the embedded watermark.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/travel_time.hpp"
#include "util/binio.hpp"
#include "util/journal.hpp"
#include "util/obs.hpp"

namespace wiloc::core {

/// Where and how aggressively the server persists learned state.
/// An empty `dir` disables persistence entirely (the default).
struct PersistenceConfig {
  std::string dir;  ///< state directory; created on demand

  /// Sim-time between periodic checkpoints (measured on the exit times
  /// of the observations flowing through the store). The server applies
  /// it from finalize_history() on; the offline load is bounded by the
  /// journal-size trigger alone.
  double snapshot_interval_s = 15.0 * 60.0;
  /// Journal size that forces a checkpoint regardless of the interval.
  std::uint64_t journal_trigger_bytes = 4ull << 20;
  journal::FsyncPolicy fsync = journal::FsyncPolicy::on_checkpoint;
  /// Test-only crash injection (see sim::CrashInjector); invoked at
  /// named sites inside the journal/snapshot writers.
  journal::FailureHook failure_hook;

  bool enabled() const { return !dir.empty(); }
};

/// Obs handles for the persistence path; all-null by default.
struct PersistMetrics {
  obs::Counter* snapshots = nullptr;        ///< persist.snapshots
  obs::Counter* journal_appends = nullptr;  ///< persist.journal_appends
  obs::Counter* journal_writes = nullptr;   ///< persist.journal_writes
  obs::Counter* recovered = nullptr;        ///< persist.recovered
  obs::Counter* skipped = nullptr;          ///< persist.skipped
  obs::Counter* corrupt = nullptr;          ///< persist.corrupt
  obs::Counter* config_mismatch = nullptr;  ///< persist.config_mismatch
  obs::Gauge* journal_bytes = nullptr;      ///< persist.journal_bytes
};

/// Journal record types (first payload byte after the sequence number).
enum class JournalRecord : std::uint8_t {
  history_obs = 1,  ///< offline training observation (pre-finalize)
  recent_obs = 2,   ///< live completed-segment traversal
};

/// One journal payload: `[u64 seq][u8 type][TravelObservation]`.
struct JournalEntry {
  std::uint64_t seq = 0;
  JournalRecord type = JournalRecord::recent_obs;
  TravelObservation obs;
};

/// The one decoder of journal payloads — recovery, segment tailing and
/// replication all read records through it. nullopt when the payload is
/// malformed or carries an unknown record type (callers skip it).
std::optional<JournalEntry> decode_journal_entry(
    std::span<const std::byte> payload);

/// Exact identity of one observation; the dedup key for idempotent
/// history loading and journal replay.
struct ObservationKey {
  std::uint32_t edge = 0;
  std::uint32_t route = 0;
  std::uint64_t exit_bits = 0;
  std::uint64_t travel_bits = 0;

  static ObservationKey of(const TravelObservation& obs);
  friend bool operator==(const ObservationKey&,
                         const ObservationKey&) = default;
  struct Hash {
    std::size_t operator()(const ObservationKey& k) const;
  };
};

/// Snapshot + journal manager for one state directory. Owns the journal
/// writer; the server drives it from the control thread.
class StatePersistence {
 public:
  /// Creates the directory when missing and opens the journal.
  explicit StatePersistence(PersistenceConfig config);

  void set_metrics(const PersistMetrics& metrics) { metrics_ = metrics; }

  const PersistenceConfig& config() const { return config_; }
  std::string snapshot_path() const { return config_.dir + "/state.snapshot"; }
  std::string journal_path() const { return config_.dir + "/state.journal"; }
  /// Side file holding journal frames already covered by an in-flight
  /// (or crashed) two-phase checkpoint; replayed before the active
  /// journal on recovery.
  std::string sealed_journal_path() const {
    return config_.dir + "/state.journal.sealed";
  }

  /// Stages one seq-stamped observation record: its frame waits in the
  /// journal writer's buffer and reaches the file at the next flush().
  /// Sequence numbers are assigned here, so staged and flushed records
  /// stay contiguous and in order. Frames still staged when the manager
  /// is destroyed are dropped, as a crash would drop them. Throws
  /// StateError once poisoned.
  void stage(JournalRecord type, const TravelObservation& obs);

  /// Writes every staged frame, in order, with one journal write(2); a
  /// no-op when nothing is staged. seal_journal() flushes first. Throws
  /// StateError once poisoned; a failed write poisons the manager.
  void flush();

  /// Framed bytes staged and not yet flushed.
  std::uint64_t staged_bytes() const {
    return writer_ != nullptr ? writer_->staged_bytes() : 0;
  }

  /// Staged bytes at which the server's history load flushes. A
  /// constant, not a setting: large enough that a multi-day load makes
  /// one write per ~1,600 observations, small enough that the one
  /// staging buffer stays a small resident cost.
  static constexpr std::uint64_t kHistoryFlushBytes = 64u << 10;

  /// True once a persistence operation failed (I/O error or injected
  /// crash). A poisoned manager refuses every further append and seal
  /// — in particular the server's destructor checkpoint is skipped, so
  /// a simulated crash cannot leak post-crash state to disk.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire) ||
           (writer_ != nullptr && writer_->dead());
  }

  /// True when the journal-size trigger has fired (staged bytes count).
  bool journal_full() const {
    return journal_bytes() >= config_.journal_trigger_bytes;
  }
  /// True when the interval or journal-size trigger has fired since the
  /// last checkpoint.
  bool should_checkpoint(SimTime now) const;

  // -- checkpointing: seal, then commit ----------------------------------

  /// Phase 1, control thread: flushes staged frames, then rotates the
  /// active journal into the sealed side file (concatenating when a
  /// crashed checkpoint left one behind) and reopens a fresh journal
  /// for subsequent appends. After
  /// this the caller serializes the state body covering last_seq() and
  /// hands it to commit_checkpoint() on any thread. Throws StateError
  /// once poisoned; a failure here poisons the manager.
  void seal_journal();

  /// Phase 2, any thread: atomically writes `body` as the new snapshot
  /// and deletes the sealed segment it covers. `body` must embed the
  /// last_seq() read right after seal_journal() so the next recovery
  /// can dedup the snapshot/journal overlap. Never touches the active
  /// journal, so control-thread appends proceed concurrently.
  void commit_checkpoint(std::span<const std::byte> body, SimTime now);

  /// Sequence number of the most recently staged record (0 before the
  /// first one); the watermark embedded in snapshots, which are only
  /// ever taken after seal_journal() has flushed it.
  std::uint64_t last_seq() const { return seq_; }
  /// Continues the sequence after recovery.
  void resume_seq(std::uint64_t seq) { seq_ = std::max(seq_, seq); }

  /// Active journal bytes, staged frames included.
  std::uint64_t journal_bytes() const;

  // -- segment tailing (replication read path) ---------------------------

  /// One page of journal frames for a tailing peer.
  struct TailResult {
    /// Raw re-framed journal bytes ([u32 len][u32 crc][payload] per
    /// record) — the wire format; a peer decodes with
    /// journal::scan_frames + decode_journal_entry, like recovery.
    std::vector<std::byte> frames;
    std::uint64_t first_seq = 0;  ///< lowest seq included (0 when empty)
    std::uint64_t last_seq = 0;   ///< highest seq included (0 when empty)
    std::uint64_t records = 0;    ///< frames included
    /// More matching records existed beyond max_bytes; the peer should
    /// tail again immediately from last_seq instead of sleeping.
    bool truncated = false;
  };

  /// Reads every decodable journal record with seq > `after` from the
  /// sealed segment and the active journal (in append order), stopping
  /// once `max_bytes` of frames are collected. Sees flushed frames only
  /// (WiLocatorServer::tail_journal flushes first). Read-only on the
  /// files — safe to call between appends on the control thread while a
  /// background commit runs; a torn in-progress tail frame is simply
  /// not included yet (the next tail picks it up). Sequence numbers are
  /// contiguous per node, so a gap between `after` and first_seq means
  /// records were compacted into a snapshot (see compacted_through()).
  TailResult tail_segments(std::uint64_t after, std::size_t max_bytes) const;

  /// Highest sequence number whose record has been folded into a
  /// snapshot and removed from the journal files. A tailing peer whose
  /// watermark is below this can never read the missing records here —
  /// it records the gap and resumes from the compaction point (bounded
  /// staleness; in steady state peers poll far faster than checkpoints
  /// compact, so the gap stays empty).
  std::uint64_t compacted_through() const {
    return covered_seq_.load(std::memory_order_acquire);
  }

  struct RecoveryResult {
    std::optional<journal::SnapshotData> snapshot;  ///< verified body
    bool snapshot_corrupt = false;  ///< present but failed magic/CRC
    std::vector<JournalEntry> records;  ///< decodable journal records
    journal::ReplayStats replay;
    /// Journal frames whose payload failed to decode (counted corrupt
    /// on top of replay.frames_corrupt).
    std::uint64_t undecodable = 0;
  };

  /// Reads whatever state the directory holds. Content corruption never
  /// throws: it is reported in the result (and the caller bumps the
  /// metrics); only environmental I/O failures propagate.
  RecoveryResult recover();

  /// The server snapshot-body magic/version (shared with save/restore).
  /// A version-1 body is a version-2 body followed by a retired
  /// traffic-map section that readers ignore, so both are accepted.
  static constexpr std::uint32_t kSnapshotMagic = 0x534c4957;  // "WILS"
  static constexpr std::uint32_t kSnapshotVersion = 2;
  static constexpr std::uint32_t kOldestSnapshotVersion = 1;

 private:
  void finish_checkpoint(SimTime now);

  PersistenceConfig config_;
  PersistMetrics metrics_;
  /// Control thread only; null after a failed seal (then poisoned).
  std::unique_ptr<journal::Writer> writer_;
  /// stage()'s encoded payload; reused per frame.
  BinWriter payload_;
  std::uint64_t seq_ = 0;
  /// Highest seq in the sealed segment (captured by seal_journal;
  /// promoted to covered_seq_ when the commit removes the segment).
  std::atomic<std::uint64_t> sealed_through_{0};
  std::atomic<std::uint64_t> covered_seq_{0};  ///< see compacted_through()
  /// Guards the checkpoint-cadence bookkeeping shared between the
  /// control thread (stage / should_checkpoint) and a background
  /// committer (commit_checkpoint).
  mutable std::mutex time_mu_;
  std::optional<SimTime> last_checkpoint_time_;
  std::atomic<bool> poisoned_{false};
};

/// Combined fingerprint of the configuration that shapes the persisted
/// state's meaning (slot partition + predictor options). Embedded in
/// snapshots; drift is flagged, not fatal.
std::uint64_t state_fingerprint(const DaySlots& slots,
                                std::uint64_t predictor_fingerprint);

}  // namespace wiloc::core
