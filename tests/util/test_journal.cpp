#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "util/binio.hpp"

namespace wiloc::journal {
namespace {

using wiloc::testing::TempDir;

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

/// Unique path under the test's temp dir, removed on destruction.
std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) out[i] = std::byte(raw[i]);
  return out;
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(Crc32, CheckVector) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SensitiveToEveryByte) {
  const auto base = bytes_of("wilocator journal frame");
  const std::uint32_t ref = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto flipped = base;
    flipped[i] ^= std::byte{0x01};
    EXPECT_NE(crc32(flipped), ref) << "byte " << i;
  }
}

TEST(Journal, AppendReplayRoundTrip) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  std::vector<std::vector<std::byte>> frames = {
      bytes_of("alpha"), bytes_of(""), bytes_of("a much longer frame 123")};
  {
    Writer w(path, FsyncPolicy::every_append);
    for (const auto& f : frames) w.append(f);
    EXPECT_GT(w.size_bytes(), 0u);
  }
  std::vector<std::vector<std::byte>> seen;
  const ReplayStats stats = replay(path, [&](std::span<const std::byte> p) {
    seen.emplace_back(p.begin(), p.end());
  });
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.frames_ok, frames.size());
  EXPECT_EQ(seen, frames);
}

TEST(Journal, MissingFileIsEmpty) {
  TempDir tmp("wiloc_journal_test");
  const ReplayStats stats =
      replay(tmp.path("nonexistent"), [](std::span<const std::byte>) {
        FAIL() << "no frame should be delivered";
      });
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.frames_ok, 0u);
  EXPECT_EQ(stats.bytes_scanned, 0u);
}

TEST(Journal, ReopenContinuesAppending) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  {
    Writer w(path);
    w.append(bytes_of("one"));
  }
  {
    Writer w(path);  // reopen: must append, not truncate
    w.append(bytes_of("two"));
  }
  std::vector<std::string> seen;
  replay(path, [&](std::span<const std::byte> p) {
    seen.emplace_back(reinterpret_cast<const char*>(p.data()), p.size());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two"}));
}

TEST(Journal, TornTailIsStoppedAtNotFatal) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  {
    Writer w(path);
    w.append(bytes_of("intact"));
    w.append(bytes_of("to be torn"));
  }
  auto raw = read_file(path);
  raw.resize(raw.size() - 4);  // tear the last frame's payload
  write_file(path, raw);

  std::vector<std::string> seen;
  const ReplayStats stats = replay(path, [&](std::span<const std::byte> p) {
    seen.emplace_back(reinterpret_cast<const char*>(p.data()), p.size());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"intact"}));
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.frames_corrupt, 0u);
}

TEST(Journal, CorruptMiddleFrameIsSkippedNotFatal) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  std::uint64_t second_payload_offset = 0;
  {
    Writer w(path);
    w.append(bytes_of("first"));
    second_payload_offset = w.size_bytes() + 8;  // past the second header
    w.append(bytes_of("second"));
    w.append(bytes_of("third"));
  }
  auto raw = read_file(path);
  raw[static_cast<std::size_t>(second_payload_offset)] ^= std::byte{0xFF};
  write_file(path, raw);

  std::vector<std::string> seen;
  const ReplayStats stats = replay(path, [&](std::span<const std::byte> p) {
    seen.emplace_back(reinterpret_cast<const char*>(p.data()), p.size());
  });
  // The corrupt record is skipped; the frames around it survive.
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "third"}));
  EXPECT_EQ(stats.frames_corrupt, 1u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(Journal, ImplausibleLengthTreatedAsTornTail) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  BinWriter garbage;
  garbage.put_u32(kMaxFrameBytes + 1);  // framing lost
  garbage.put_u32(0);
  write_file(path, garbage.bytes());
  const ReplayStats stats =
      replay(path, [](std::span<const std::byte>) { FAIL(); });
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.frames_ok, 0u);
}

TEST(Journal, RenamedAwayJournalReopensEmpty) {
  // Checkpoint compaction renames the active journal aside and opens a
  // fresh one at the same path: the new writer must start empty and the
  // renamed file must keep every frame.
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  const std::string sealed = tmp.path("j.sealed");
  {
    Writer w(path);
    w.append(bytes_of("sealed away"));
  }
  std::filesystem::rename(path, sealed);
  Writer w(path);
  EXPECT_EQ(w.size_bytes(), 0u);
  w.append(bytes_of("kept"));
  const auto frames_of = [](const std::string& p) {
    std::vector<std::string> seen;
    replay(p, [&](std::span<const std::byte> payload) {
      seen.emplace_back(reinterpret_cast<const char*>(payload.data()),
                        payload.size());
    });
    return seen;
  };
  EXPECT_EQ(frames_of(path), (std::vector<std::string>{"kept"}));
  EXPECT_EQ(frames_of(sealed), (std::vector<std::string>{"sealed away"}));
}

TEST(Journal, CrashHookTearsFrameAndPoisonsWriter) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  struct Boom {};
  {
    int torn_hits = 0;
    Writer w(path, FsyncPolicy::on_checkpoint,
             [&torn_hits](std::string_view site) {
               if (site == kSiteAppendTorn && ++torn_hits == 2) throw Boom{};
             });
    w.append(bytes_of("complete"));
    EXPECT_THROW(w.append(bytes_of("interrupted payload")), Boom);
    EXPECT_TRUE(w.dead());
    // The poisoned writer refuses further work instead of quietly
    // completing the interrupted frame.
    EXPECT_THROW(w.append(bytes_of("after death")), Error);
  }  // destructor of the dead writer must not repair the file
  std::vector<std::string> seen;
  const ReplayStats stats = replay(path, [&](std::span<const std::byte> p) {
    seen.emplace_back(reinterpret_cast<const char*>(p.data()), p.size());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"complete"}));
  EXPECT_TRUE(stats.torn_tail);
}

TEST(Journal, CrashHookMidAppendLeavesHeaderOnly) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("j");
  struct Boom {};
  Writer w(path, FsyncPolicy::never, [](std::string_view site) {
    if (site == kSiteAppendMid) throw Boom{};
  });
  EXPECT_THROW(w.append(bytes_of("payload never written")), Boom);
  const auto raw = read_file(path);
  EXPECT_EQ(raw.size(), 8u);  // u32 len + u32 crc, no payload
  const ReplayStats stats =
      replay(path, [](std::span<const std::byte>) { FAIL(); });
  EXPECT_TRUE(stats.torn_tail);
}

/// Payloads of assorted sizes: empty, odd and even halves.
std::vector<std::vector<std::byte>> batch_payloads() {
  return {bytes_of("first frame"), bytes_of(""), bytes_of("x"),
          bytes_of("an odd-length fourth payload"),
          bytes_of("the last frame of the batch")};
}

/// Stages every frame of the batch; the caller flushes.
void stage_all(Writer& w, const std::vector<std::vector<std::byte>>& frames) {
  for (const auto& frame : frames) w.stage(frame);
}

std::string text_of(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::vector<std::string> replayed(const std::string& path,
                                  ReplayStats* stats = nullptr) {
  std::vector<std::string> seen;
  const ReplayStats s = replay(
      path, [&](std::span<const std::byte> p) { seen.push_back(text_of(p)); });
  if (stats != nullptr) *stats = s;
  return seen;
}

TEST(Journal, BatchIsOneWriteWithPerFrameBytes) {
  TempDir tmp("wiloc_journal_test");
  const auto frames = batch_payloads();
  for (const FsyncPolicy fsync :
       {FsyncPolicy::never, FsyncPolicy::every_append}) {
    SCOPED_TRACE(to_string(fsync));
    const std::string per_frame =
        tmp.path(std::string("one_") + to_string(fsync));
    const std::string batched =
        tmp.path(std::string("batch_") + to_string(fsync));
    {
      Writer w(per_frame, fsync);
      for (const auto& frame : frames) w.append(frame);
      EXPECT_EQ(w.writes(), frames.size());  // one write(2) per frame
    }
    {
      Writer w(batched, fsync);
      stage_all(w, frames);
      EXPECT_EQ(w.writes(), 0u);  // staged frames wait for the flush
      EXPECT_EQ(w.staged_frames(), frames.size());
      EXPECT_EQ(w.staged_bytes(), read_file(per_frame).size());
      w.flush();
      EXPECT_EQ(w.writes(), 1u);  // the whole batch in one write(2)
      EXPECT_EQ(w.staged_bytes(), 0u);
      EXPECT_EQ(w.size_bytes(), read_file(per_frame).size());
    }
    EXPECT_EQ(read_file(batched), read_file(per_frame));
    ReplayStats stats;
    EXPECT_EQ(replayed(batched, &stats), replayed(per_frame));
    EXPECT_EQ(stats.frames_ok, frames.size());
    EXPECT_TRUE(stats.clean());
  }
}

TEST(Journal, BatchCrashAtFrameSiteLeavesPerFramePrefix) {
  // A crash at frame k's site must leave frames 1..k-1 plus exactly the
  // prefix a one-frame append leaves: the header at the mid site, the
  // header and the first half of the payload at the torn site.
  const auto frames = batch_payloads();
  struct Boom {};
  for (const std::string_view site : {kSiteAppendMid, kSiteAppendTorn}) {
    for (std::size_t k = 1; k <= frames.size(); ++k) {
      SCOPED_TRACE(std::string(site) + " at frame " + std::to_string(k));
      TempDir tmp("wiloc_journal_test");
      std::size_t hits = 0;
      const FailureHook hook = [&hits, site, k](std::string_view at) {
        if (at == site && ++hits == k) throw Boom{};
      };

      std::vector<std::byte> want;
      for (std::size_t i = 0; i + 1 < k; ++i) append_frame(want, frames[i]);
      std::vector<std::byte> torn;
      append_frame(torn, frames[k - 1]);
      const std::size_t keep =
          8 + (site == kSiteAppendTorn ? frames[k - 1].size() / 2 : 0);
      want.insert(want.end(), torn.begin(),
                  torn.begin() + static_cast<std::ptrdiff_t>(keep));

      const std::string batched = tmp.path("batch");
      {
        Writer w(batched, FsyncPolicy::never, hook);
        stage_all(w, frames);
        EXPECT_THROW(w.flush(), Boom);
        EXPECT_TRUE(w.dead());
        EXPECT_EQ(w.size_bytes(), want.size());
        EXPECT_EQ(w.staged_bytes(), 0u);  // the crash dropped the rest
        EXPECT_THROW(w.stage(frames[0]), Error);
      }
      EXPECT_EQ(read_file(batched), want);

      // The same crash through one-frame appends leaves the same bytes.
      hits = 0;
      const std::string per_frame = tmp.path("one");
      {
        Writer w(per_frame, FsyncPolicy::never, hook);
        for (std::size_t i = 0; i + 1 < k; ++i) w.append(frames[i]);
        EXPECT_THROW(w.append(frames[k - 1]), Boom);
      }
      EXPECT_EQ(read_file(per_frame), want);

      // Replay keeps the complete frames; an empty payload's header is
      // already a whole frame.
      const bool whole = keep == torn.size();
      ReplayStats stats;
      const std::vector<std::string> seen = replayed(batched, &stats);
      ASSERT_EQ(seen.size(), k - 1 + (whole ? 1 : 0));
      for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], text_of(frames[i]));
      EXPECT_EQ(stats.torn_tail, !whole);
    }
  }
}

TEST(Snapshot, RoundTrip) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  const auto body = bytes_of("learned state body");
  write_snapshot_file(path, 0xABCD1234u, 7, body, true);
  const auto snap = read_snapshot_file(path, 0xABCD1234u);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->version, 7u);
  EXPECT_EQ(snap->body, body);
}

TEST(Snapshot, MissingIsNullopt) {
  TempDir tmp("wiloc_journal_test");
  EXPECT_FALSE(read_snapshot_file(tmp.path("none"), 1).has_value());
}

TEST(Snapshot, WrongMagicThrows) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  write_snapshot_file(path, 0x11111111u, 1, bytes_of("x"), false);
  EXPECT_THROW(read_snapshot_file(path, 0x22222222u), DecodeError);
}

TEST(Snapshot, CorruptBodyThrows) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  write_snapshot_file(path, 0xABCD1234u, 1, bytes_of("snapshot body"),
                      false);
  auto raw = read_file(path);
  raw.back() ^= std::byte{0x40};
  write_file(path, raw);
  EXPECT_THROW(read_snapshot_file(path, 0xABCD1234u), DecodeError);
}

TEST(Snapshot, TruncatedFileThrows) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  write_snapshot_file(path, 0xABCD1234u, 1, bytes_of("snapshot body"),
                      false);
  auto raw = read_file(path);
  raw.resize(raw.size() / 2);
  write_file(path, raw);
  EXPECT_THROW(read_snapshot_file(path, 0xABCD1234u), DecodeError);
}

TEST(Snapshot, RewriteReplacesAtomically) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  write_snapshot_file(path, 5u, 1, bytes_of("old"), false);
  write_snapshot_file(path, 5u, 2, bytes_of("new body"), true);
  const auto snap = read_snapshot_file(path, 5u);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->version, 2u);
  EXPECT_EQ(snap->body, bytes_of("new body"));
}

TEST(Snapshot, CrashBeforeRenameKeepsOldSnapshot) {
  TempDir tmp("wiloc_journal_test");
  const std::string path = tmp.path("snap");
  write_snapshot_file(path, 5u, 1, bytes_of("old"), false);
  struct Boom {};
  EXPECT_THROW(
      write_snapshot_file(path, 5u, 2, bytes_of("new"), false,
                          [](std::string_view site) {
                            if (site == kSiteSnapshotPreRename) throw Boom{};
                          }),
      Boom);
  // The crash hit between tmp-write and rename: the visible snapshot is
  // still the complete old version.
  const auto snap = read_snapshot_file(path, 5u);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->body, bytes_of("old"));
}

TEST(FsyncPolicy, Names) {
  EXPECT_STREQ(to_string(FsyncPolicy::never), "never");
  EXPECT_STREQ(to_string(FsyncPolicy::on_checkpoint), "on_checkpoint");
  EXPECT_STREQ(to_string(FsyncPolicy::every_append), "every_append");
}

}  // namespace
}  // namespace wiloc::journal
