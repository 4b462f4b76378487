// Sealed-segment tailing: the replication read path over
// StatePersistence. Covers the pagination contract, the
// seal/concatenate lifecycle a tailing peer observes, reader-side
// tolerance of a torn tail frame, the compaction watermark, and
// appends racing a tailer.
#include "core/persist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "util/binio.hpp"
#include "util/journal.hpp"
#include "util/time.hpp"

namespace wiloc::core {
namespace {

using wiloc::testing::TempDir;

using roadnet::EdgeId;
using roadnet::RouteId;

PersistenceConfig config_for(const TempDir& tmp) {
  PersistenceConfig config;
  config.dir = tmp.path();
  config.fsync = journal::FsyncPolicy::never;  // tests: speed over durability
  return config;
}

TravelObservation obs_n(std::uint32_t n) {
  return {EdgeId(n % 7), RouteId(n % 3), at_day_time(0, 3600.0 + n),
          30.0 + static_cast<double>(n)};
}

/// Decodes a tail page back into journal entries via the same
/// scan_frames + decode_journal_entry everyone else uses.
std::vector<JournalEntry> decode_page(
    const StatePersistence::TailResult& page) {
  std::vector<JournalEntry> out;
  const journal::ReplayStats stats = journal::scan_frames(
      page.frames, [&](std::span<const std::byte> payload) {
        const auto entry = decode_journal_entry(payload);
        ASSERT_TRUE(entry.has_value());
        out.push_back(*entry);
      });
  EXPECT_TRUE(stats.clean());  // re-framed pages carry valid CRCs
  return out;
}

TEST(PersistTail, PageAfterWatermarkReturnsExactSuffix) {
  TempDir tmp("wiloc_tail_test");
  StatePersistence persist(config_for(tmp));
  for (std::uint32_t n = 1; n <= 10; ++n)
    persist.stage(n % 2 == 0 ? JournalRecord::recent_obs
                             : JournalRecord::history_obs,
                  obs_n(n));
  persist.flush();

  const auto all = persist.tail_segments(0, 1 << 20);
  EXPECT_EQ(all.records, 10u);
  EXPECT_EQ(all.first_seq, 1u);
  EXPECT_EQ(all.last_seq, 10u);
  EXPECT_FALSE(all.truncated);
  const auto decoded = decode_page(all);
  ASSERT_EQ(decoded.size(), 10u);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, i + 1);
    EXPECT_EQ(ObservationKey::of(decoded[i].obs),
              ObservationKey::of(obs_n(static_cast<std::uint32_t>(i + 1))));
  }

  const auto suffix = persist.tail_segments(7, 1 << 20);
  EXPECT_EQ(suffix.records, 3u);
  EXPECT_EQ(suffix.first_seq, 8u);
  EXPECT_EQ(suffix.last_seq, 10u);

  const auto beyond = persist.tail_segments(10, 1 << 20);
  EXPECT_EQ(beyond.records, 0u);
  EXPECT_TRUE(beyond.frames.empty());
  EXPECT_FALSE(beyond.truncated);
}

TEST(PersistTail, SmallPagesPaginateWithoutLossOrDuplication) {
  TempDir tmp("wiloc_tail_test");
  StatePersistence persist(config_for(tmp));
  for (std::uint32_t n = 1; n <= 40; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.flush();

  std::vector<std::uint64_t> seen;
  std::uint64_t after = 0;
  int pages = 0;
  for (;;) {
    const auto page = persist.tail_segments(after, 128);
    if (page.records == 0) {
      EXPECT_FALSE(page.truncated);
      break;
    }
    // A page is never empty while records remain: even a single frame
    // larger than max_bytes is shipped (progress guarantee).
    for (const JournalEntry& d : decode_page(page)) seen.push_back(d.seq);
    after = page.last_seq;
    ++pages;
    ASSERT_LT(pages, 100);
  }
  EXPECT_GT(pages, 1);  // the budget actually split the stream
  ASSERT_EQ(seen.size(), 40u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(PersistTail, RepeatedSealsStayVisibleInOrder) {
  TempDir tmp("wiloc_tail_test");
  StatePersistence persist(config_for(tmp));
  // Two seals without a commit in between concatenate into one sealed
  // segment (the crashed-checkpoint path); a tailer must see one
  // ordered stream across sealed + active regardless.
  for (std::uint32_t n = 1; n <= 5; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.seal_journal();
  for (std::uint32_t n = 6; n <= 9; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.seal_journal();
  for (std::uint32_t n = 10; n <= 12; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.flush();

  EXPECT_TRUE(std::filesystem::exists(persist.sealed_journal_path()));
  const auto all = persist.tail_segments(0, 1 << 20);
  EXPECT_EQ(all.records, 12u);
  const auto decoded = decode_page(all);
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_EQ(decoded[i].seq, i + 1);
  // Sealing alone compacts nothing: every record is still tailable.
  EXPECT_EQ(persist.compacted_through(), 0u);

  // Tailing from mid-sealed-segment crosses the seal boundary cleanly.
  const auto tail = persist.tail_segments(8, 1 << 20);
  EXPECT_EQ(tail.first_seq, 9u);
  EXPECT_EQ(tail.last_seq, 12u);
}

TEST(PersistTail, CommitPromotesCompactionWatermarkAndDropsSealed) {
  TempDir tmp("wiloc_tail_test");
  StatePersistence persist(config_for(tmp));
  for (std::uint32_t n = 1; n <= 6; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.seal_journal();
  for (std::uint32_t n = 7; n <= 8; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.flush();

  const std::vector<std::byte> body(16, std::byte{0x5a});
  persist.commit_checkpoint(body, at_day_time(0, 4000.0));

  // Records 1..6 now live only in the snapshot: a peer below the
  // watermark sees the gap (first_seq jumps) and the compaction point.
  EXPECT_EQ(persist.compacted_through(), 6u);
  const auto page = persist.tail_segments(0, 1 << 20);
  EXPECT_EQ(page.first_seq, 7u);
  EXPECT_EQ(page.last_seq, 8u);
  EXPECT_EQ(page.records, 2u);

  // Sealing with nothing in flight covers everything journaled so far.
  persist.stage(JournalRecord::recent_obs, obs_n(9));
  persist.seal_journal();  // flushes record 9 into the sealed segment
  persist.commit_checkpoint(body, at_day_time(0, 4100.0));
  EXPECT_EQ(persist.compacted_through(), 9u);
  EXPECT_EQ(persist.tail_segments(0, 1 << 20).records, 0u);
}

TEST(PersistTail, BatchAppendTailsAndRecoversLikePerRecordAppends) {
  std::vector<TravelObservation> batch;
  for (std::uint32_t n = 1; n <= 9; ++n) batch.push_back(obs_n(n));

  TempDir one_dir("wiloc_tail_test");
  TempDir batch_dir("wiloc_tail_test");
  StatePersistence one(config_for(one_dir));
  StatePersistence batched(config_for(batch_dir));
  for (const TravelObservation& obs : batch) {
    one.stage(JournalRecord::recent_obs, obs);
    one.flush();
  }
  for (const TravelObservation& obs : batch)
    batched.stage(JournalRecord::recent_obs, obs);
  batched.flush();
  EXPECT_EQ(batched.last_seq(), one.last_seq());
  EXPECT_EQ(batched.journal_bytes(), one.journal_bytes());

  for (const std::uint64_t after : {0u, 4u}) {
    SCOPED_TRACE(after);
    const auto want = one.tail_segments(after, 1 << 20);
    const auto got = batched.tail_segments(after, 1 << 20);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.first_seq, want.first_seq);
    EXPECT_EQ(got.last_seq, want.last_seq);
    EXPECT_EQ(got.records, want.records);
  }
  const auto want = one.recover();
  const auto got = batched.recover();
  ASSERT_EQ(got.records.size(), batch.size());
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].seq, want.records[i].seq);
    EXPECT_EQ(got.records[i].obs, batch[i]);
  }
  EXPECT_TRUE(got.replay.clean());
}

TEST(PersistTail, TornTailFrameIsNotShippedUntilComplete) {
  TempDir tmp("wiloc_tail_test");
  PersistenceConfig config = config_for(tmp);
  struct Boom {};
  std::atomic<bool> arm{false};
  config.failure_hook = [&arm](std::string_view site) {
    if (arm.load() && site == journal::kSiteAppendTorn) throw Boom{};
  };
  StatePersistence persist(config);
  for (std::uint32_t n = 1; n <= 4; ++n)
    persist.stage(JournalRecord::recent_obs, obs_n(n));
  persist.flush();
  arm.store(true);
  persist.stage(JournalRecord::recent_obs, obs_n(5));
  EXPECT_THROW(persist.flush(), Boom);
  EXPECT_TRUE(persist.poisoned());

  // The torn frame sits at the journal tail; a tailer gets only the
  // complete prefix — exactly what recovery would replay.
  const auto page = persist.tail_segments(0, 1 << 20);
  EXPECT_EQ(page.records, 4u);
  EXPECT_EQ(page.last_seq, 4u);
  const auto decoded = decode_page(page);
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded.back().seq, 4u);
}

TEST(PersistTail, ConcurrentAppendsNeverYieldTornOrOutOfOrderPages) {
  TempDir tmp("wiloc_tail_test");
  StatePersistence persist(config_for(tmp));
  constexpr std::uint32_t kTotal = 300;

  // Reader thread: tail in pages while the writer appends. Every page
  // must decode cleanly and sequence numbers must arrive contiguously —
  // an in-progress append is either fully visible or not at all.
  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{true};
  std::vector<std::uint64_t> seen;
  std::thread reader([&] {
    std::uint64_t after = 0;
    while (!done.load(std::memory_order_acquire) || true) {
      const bool finished = done.load(std::memory_order_acquire);
      const auto page = persist.tail_segments(after, 4096);
      for (const JournalEntry& d : decode_page(page)) {
        if (d.seq != after + 1) reader_ok.store(false);
        after = d.seq;
        seen.push_back(d.seq);
      }
      if (finished && page.records == 0) break;
      std::this_thread::yield();
    }
  });

  for (std::uint32_t n = 1; n <= kTotal; ++n) {
    persist.stage(JournalRecord::recent_obs, obs_n(n));
    persist.flush();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(reader_ok.load());
  ASSERT_EQ(seen.size(), kTotal);
  EXPECT_EQ(seen.back(), kTotal);
}

}  // namespace
}  // namespace wiloc::core
