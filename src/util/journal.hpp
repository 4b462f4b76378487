// Durable-state primitives: CRC-framed append-only journals and atomic
// versioned snapshot files.
//
// The learned travel-time state a WiLocator server accumulates (weeks of
// per-(edge,route,slot) history, the recent-correction rings) must
// survive a process crash, so the persistence layer follows the classic
// checkpoint + write-ahead discipline:
//
//  - Journal: an append-only file of length-prefixed, CRC32-guarded
//    frames. The writer stages frames in one buffer and each flush
//    makes one unbuffered write(2), so a crash leaves at most one torn
//    frame at the tail; replay verifies every frame and
//    *skips* a corrupt record (bad CRC) or stops at a torn/implausible
//    tail instead of aborting — recovery always returns the readable
//    prefix.
//  - Snapshot: a whole-state file written as temp + fsync + rename(2),
//    so the snapshot at `path` is always either the complete old version
//    or the complete new one, never a partial write. A magic, a format
//    version and a body CRC reject foreign or corrupt files.
//
// Crash injection: both paths accept a FailureHook that is invoked at
// named internal sites. A hook that throws simulates the process dying
// at exactly that point (sim::CrashInjector uses this): the bytes before
// the site reach disk, nothing after it does. A journal site is a byte
// offset inside the flush's buffer: the writer writes exactly that
// prefix and poisons itself, so no destructor flush can "un-tear" the
// file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wiloc::journal {

/// IEEE 802.3 (reflected, poly 0xEDB88320) CRC-32.
std::uint32_t crc32(std::span<const std::byte> data);

/// When the persistence layer calls fsync(2).
enum class FsyncPolicy {
  never,         ///< leave durability to the OS page cache
  on_checkpoint, ///< fsync checkpoint snapshots only (default)
  every_append,  ///< fsync after every journal frame (durable, slow)
};

const char* to_string(FsyncPolicy policy);

/// Test hook invoked at named internal sites; throwing simulates a
/// process crash at that exact point (the bytes before the site are on
/// disk, nothing after the site is written).
using FailureHook = std::function<void(std::string_view site)>;

/// Frame header (length + CRC) written, payload not yet.
inline constexpr std::string_view kSiteAppendMid = "journal.append.mid";
/// Frame header + first half of the payload written: a torn final frame.
inline constexpr std::string_view kSiteAppendTorn = "journal.append.torn";
/// Snapshot temp file complete, rename(2) over the live file not done.
inline constexpr std::string_view kSiteSnapshotPreRename =
    "snapshot.pre_rename";

/// Bytes of a frame's [u32 len][u32 crc] header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Replay refuses frames larger than this: an implausible length field
/// means the framing itself is corrupt and the rest of the file is
/// unreadable (treated as a torn tail).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

/// An owned file descriptor, closed on destruction (-1 when none).
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  ~UniqueFd();
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

/// Append-only journal writer. Each frame is
/// [u32 payload_len][u32 payload_crc][payload]. stage() lays frames out
/// back to back in one reused buffer and flush() writes them with one
/// unbuffered write(2); append() is both. FsyncPolicy::every_append
/// adds an fsync before each flush returns. Throws wiloc::Error on I/O
/// failure.
class Writer {
 public:
  /// Opens (creating if needed) `path` for appending.
  explicit Writer(std::string path,
                  FsyncPolicy fsync = FsyncPolicy::on_checkpoint,
                  FailureHook hook = {});

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Frames one payload into the pending buffer; nothing reaches the
  /// file until flush(), and frames still staged when the writer is
  /// destroyed are dropped, as a crash would drop them. Requires
  /// payload.size() <= kMaxFrameBytes.
  void stage(std::span<const std::byte> payload);

  /// Writes every staged frame with one write(2); a no-op when nothing
  /// is staged. Each frame keeps its own crash sites, so a crash at
  /// frame k leaves frames 1..k-1 plus the prefix of frame k that a
  /// one-frame append would have left.
  void flush();

  /// Appends one frame: stage(), then flush().
  void append(std::span<const std::byte> payload);

  /// Framed bytes staged and not yet written.
  std::size_t staged_bytes() const { return buf_.size(); }
  /// Frames staged and not yet written.
  std::size_t staged_frames() const { return sizes_.size(); }

  /// fsync(2) the journal file.
  void sync();

  /// Bytes currently in the journal file (pre-existing + appended).
  std::uint64_t size_bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// write(2) calls this writer has made.
  std::uint64_t writes() const { return writes_; }

  /// True once a failure hook "killed" this writer; every further
  /// stage throws and nothing more reaches disk.
  bool dead() const { return dead_; }

 private:
  /// Writes the first `n` bytes of buf_.
  void write_buffered(std::size_t n);
  /// Fires the failure hook at `site`, `offset` bytes into buf_. A
  /// throwing hook poisons the writer and writes exactly that prefix
  /// (the simulated crash) before the exception propagates.
  void fire(std::string_view site, std::size_t offset);

  std::string path_;
  FsyncPolicy fsync_;
  FailureHook hook_;
  UniqueFd fd_;
  std::vector<std::byte> buf_;  ///< staged frames; reused
  std::vector<std::uint32_t> sizes_;  ///< payload size per staged frame
  std::uint64_t bytes_ = 0;
  std::uint64_t writes_ = 0;
  bool dead_ = false;
};

/// What replay found in a journal file.
struct ReplayStats {
  std::uint64_t frames_ok = 0;      ///< decoded and delivered
  std::uint64_t frames_corrupt = 0; ///< CRC mismatch: record skipped
  bool torn_tail = false;  ///< file ended mid-frame (or framing lost)
  std::uint64_t bytes_scanned = 0;

  bool clean() const { return frames_corrupt == 0 && !torn_tail; }
};

/// Replays every readable frame of `path` through `on_frame`, in file
/// order. A missing file is an empty journal (zero stats). A frame with
/// a bad CRC is counted and skipped; an incomplete or implausible tail
/// stops the scan. Never throws on file content (exceptions from
/// `on_frame` propagate).
ReplayStats replay(const std::string& path,
                   const std::function<void(std::span<const std::byte>)>&
                       on_frame);

/// The in-memory half of replay(): scans `data` as a sequence of
/// [u32 len][u32 crc][payload] frames. Same corruption policy as
/// replay; also the decoder for journal frames shipped over the wire
/// (the replication protocol reuses this framing verbatim, so a peer
/// validates tailed bytes with exactly the recovery-path logic).
ReplayStats scan_frames(std::span<const std::byte> data,
                        const std::function<void(std::span<const std::byte>)>&
                            on_frame);

/// Re-frames one payload exactly as Writer::stage would lay it on
/// disk ([u32 len][u32 crc][payload] appended to `out`) — used to build
/// wire-format replication batches from decoded journal records.
void append_frame(std::vector<std::byte>& out,
                  std::span<const std::byte> payload);

// -- atomic snapshot files -------------------------------------------------

/// Writes `[magic][version][body_crc][body_len][body]` to `path + ".tmp"`,
/// optionally fsyncs, then rename(2)s over `path`: the visible file is
/// always a complete snapshot. Throws wiloc::Error on I/O failure.
void write_snapshot_file(const std::string& path, std::uint32_t magic,
                         std::uint32_t version,
                         std::span<const std::byte> body, bool do_fsync,
                         const FailureHook& hook = {});

struct SnapshotData {
  std::uint32_t version = 0;
  std::vector<std::byte> body;
};

/// Reads a snapshot written by write_snapshot_file. Returns nullopt when
/// the file is missing; throws wiloc::DecodeError when it exists but
/// fails the magic / length / CRC checks (a corrupt snapshot must not be
/// silently treated as cold start by accident — the caller decides).
std::optional<SnapshotData> read_snapshot_file(const std::string& path,
                                               std::uint32_t magic);

}  // namespace wiloc::journal
