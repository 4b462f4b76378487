#include "core/persist.hpp"

#include <bit>
#include <filesystem>
#include <fstream>

#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace wiloc::core {

ObservationKey ObservationKey::of(const TravelObservation& obs) {
  ObservationKey k;
  k.edge = obs.edge.value();
  k.route = obs.route.value();
  k.exit_bits = std::bit_cast<std::uint64_t>(obs.exit_time);
  k.travel_bits = std::bit_cast<std::uint64_t>(obs.travel_time);
  return k;
}

std::size_t ObservationKey::Hash::operator()(const ObservationKey& k) const {
  return static_cast<std::size_t>(
      hash_coords(hash_coords(0x6f62736bULL, k.edge, k.route), k.exit_bits,
                  k.travel_bits));
}

std::optional<JournalEntry> decode_journal_entry(
    std::span<const std::byte> payload) {
  try {
    BinReader r(payload);
    JournalEntry entry;
    entry.seq = r.get_u64();
    const std::uint8_t type = r.get_u8();
    if (type != static_cast<std::uint8_t>(JournalRecord::history_obs) &&
        type != static_cast<std::uint8_t>(JournalRecord::recent_obs))
      return std::nullopt;
    entry.type = static_cast<JournalRecord>(type);
    entry.obs = decode_observation(r);
    return entry;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

StatePersistence::StatePersistence(PersistenceConfig config)
    : config_(std::move(config)) {
  WILOC_EXPECTS(config_.enabled());
  WILOC_EXPECTS(config_.snapshot_interval_s > 0.0);
  WILOC_EXPECTS(config_.journal_trigger_bytes > 0);
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec)
    throw Error("persist: cannot create state directory " + config_.dir +
                ": " + ec.message());
  writer_ = std::make_unique<journal::Writer>(journal_path(), config_.fsync,
                                              config_.failure_hook);
  if (metrics_.journal_bytes != nullptr)
    metrics_.journal_bytes->set(static_cast<double>(writer_->size_bytes()));
}

void StatePersistence::stage(JournalRecord type,
                             const TravelObservation& obs) {
  if (poisoned())
    throw StateError("persist: manager poisoned by an earlier failure");
  payload_.clear();
  payload_.put_u64(++seq_);
  payload_.put_u8(static_cast<std::uint8_t>(type));
  encode_observation(payload_, obs);
  writer_->stage(payload_.bytes());
  const std::lock_guard<std::mutex> lock(time_mu_);
  if (!last_checkpoint_time_.has_value())
    last_checkpoint_time_ = obs.exit_time;
}

void StatePersistence::flush() {
  if (staged_bytes() == 0) return;
  if (poisoned())
    throw StateError("persist: manager poisoned by an earlier failure");
  const std::uint64_t frames = writer_->staged_frames();
  const std::uint64_t writes_before = writer_->writes();
  try {
    writer_->flush();
  } catch (...) {
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  if (metrics_.journal_writes != nullptr)
    metrics_.journal_writes->inc(writer_->writes() - writes_before);
  if (metrics_.journal_appends != nullptr)
    metrics_.journal_appends->inc(frames);
  if (metrics_.journal_bytes != nullptr)
    metrics_.journal_bytes->set(static_cast<double>(writer_->size_bytes()));
}

bool StatePersistence::should_checkpoint(SimTime now) const {
  if (journal_full()) return true;
  const std::lock_guard<std::mutex> lock(time_mu_);
  return last_checkpoint_time_.has_value() &&
         now - *last_checkpoint_time_ >= config_.snapshot_interval_s;
}

void StatePersistence::seal_journal() {
  flush();
  if (poisoned())
    throw StateError("persist: manager poisoned by an earlier failure");
  try {
    writer_.reset();  // close the active journal before renaming it
    std::error_code ec;
    const std::string active = journal_path();
    const std::string sealed = sealed_journal_path();
    if (std::filesystem::exists(active, ec) &&
        std::filesystem::file_size(active, ec) > 0) {
      if (std::filesystem::exists(sealed, ec)) {
        // A crashed checkpoint left a sealed segment behind. Frames are
        // self-delimiting, so appending the active journal keeps the
        // concatenation a valid, ordered journal.
        std::ofstream out(sealed, std::ios::binary | std::ios::app);
        std::ifstream in(active, std::ios::binary);
        out << in.rdbuf();
        if (!out) throw Error("persist: sealing journal append failed");
        out.close();
        std::filesystem::remove(active);
      } else {
        std::filesystem::rename(active, sealed);
      }
    }
    writer_ = std::make_unique<journal::Writer>(
        journal_path(), config_.fsync, config_.failure_hook);
    // Everything appended so far is now in the sealed file; the commit
    // that removes it promotes this to the compaction watermark.
    sealed_through_.store(seq_, std::memory_order_release);
  } catch (...) {
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  if (metrics_.journal_bytes != nullptr)
    metrics_.journal_bytes->set(static_cast<double>(writer_->size_bytes()));
}

void StatePersistence::commit_checkpoint(std::span<const std::byte> body,
                                         SimTime now) {
  try {
    journal::write_snapshot_file(
        snapshot_path(), kSnapshotMagic, kSnapshotVersion, body,
        config_.fsync != journal::FsyncPolicy::never, config_.failure_hook);
    // The snapshot embeds the watermark of everything sealed, so the
    // sealed segment is redundant. A crash before this remove leaves
    // overlap that replay dedups. The active journal is untouched —
    // the control thread keeps appending to it concurrently.
    std::error_code ec;
    std::filesystem::remove(sealed_journal_path(), ec);
    const std::uint64_t sealed =
        sealed_through_.load(std::memory_order_acquire);
    std::uint64_t covered = covered_seq_.load(std::memory_order_acquire);
    while (sealed > covered &&
           !covered_seq_.compare_exchange_weak(covered, sealed,
                                               std::memory_order_acq_rel)) {
    }
  } catch (...) {
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  finish_checkpoint(now);
}

void StatePersistence::finish_checkpoint(SimTime now) {
  {
    const std::lock_guard<std::mutex> lock(time_mu_);
    last_checkpoint_time_ = now;
  }
  if (metrics_.snapshots != nullptr) metrics_.snapshots->inc();
}

std::uint64_t StatePersistence::journal_bytes() const {
  return writer_ != nullptr ? writer_->size_bytes() + staged_bytes() : 0;
}

StatePersistence::TailResult StatePersistence::tail_segments(
    std::uint64_t after, std::size_t max_bytes) const {
  TailResult out;
  const auto take_frame = [&](std::span<const std::byte> payload) {
    if (out.truncated) return;
    const std::optional<JournalEntry> entry = decode_journal_entry(payload);
    // An undecodable record is skipped by recovery, so peers never see it.
    if (!entry.has_value() || entry->seq <= after) return;
    const std::uint64_t seq = entry->seq;
    if (!out.frames.empty() && out.frames.size() + payload.size() +
                                       journal::kFrameHeaderBytes >
                                   max_bytes) {
      out.truncated = true;  // page full; peer re-tails from last_seq
      return;
    }
    journal::append_frame(out.frames, payload);
    if (out.records == 0) out.first_seq = seq;
    out.last_seq = std::max(out.last_seq, seq);
    ++out.records;
  };
  // Sealed segment first (older records), then the active journal —
  // append order, exactly like recovery. Both replays tolerate a torn
  // or in-progress tail frame: it is simply not shipped yet.
  journal::replay(sealed_journal_path(), take_frame);
  journal::replay(journal_path(), take_frame);
  return out;
}

StatePersistence::RecoveryResult StatePersistence::recover() {
  RecoveryResult result;
  try {
    result.snapshot =
        journal::read_snapshot_file(snapshot_path(), kSnapshotMagic);
  } catch (const DecodeError&) {
    // A corrupt snapshot must not abort recovery: the journal may still
    // hold a usable (if older) view of the world.
    result.snapshot_corrupt = true;
  }

  const auto decode_frame = [&](std::span<const std::byte> payload) {
    if (std::optional<JournalEntry> entry = decode_journal_entry(payload))
      result.records.push_back(*entry);
    else
      ++result.undecodable;
  };

  // A sealed segment (crashed two-phase checkpoint) holds the older
  // records: replay it before the active journal so records arrive in
  // append order.
  const journal::ReplayStats sealed =
      journal::replay(sealed_journal_path(), decode_frame);
  result.replay = journal::replay(journal_path(), decode_frame);
  result.replay.frames_ok += sealed.frames_ok;
  result.replay.frames_corrupt += sealed.frames_corrupt;
  result.replay.torn_tail = result.replay.torn_tail || sealed.torn_tail;
  result.replay.bytes_scanned += sealed.bytes_scanned;
  return result;
}

std::uint64_t state_fingerprint(const DaySlots& slots,
                                std::uint64_t predictor_fingerprint) {
  BinWriter w;
  slots.encode(w);
  return hash_coords(0x736c6f74ULL, journal::crc32(w.bytes()),
                     predictor_fingerprint);
}

}  // namespace wiloc::core
