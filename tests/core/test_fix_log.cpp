// FixLog against a std::vector<Fix> reference: every read must return
// the appended fields bit for bit, across chunk boundaries, and the log
// must hold 24 B per fix plus at most one partly filled chunk.
#include "core/fix_log.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace wiloc::core {
namespace {

constexpr std::size_t kLengths[] = {0, 1, 63, 64, 65, 1000};

/// A double drawn from the cases a bitwise store must keep apart:
/// signed zeros, subnormals, infinities, ordinary values and arbitrary
/// non-NaN bit patterns.
double edge_value(Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0:
      return -0.0;
    case 1:
      return 0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1 << 20));
    case 3:
      return -std::numeric_limits<double>::denorm_min();
    case 4:
      return rng.uniform(-1.0e4, 1.0e4);
    case 5:
      return rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
    default: {
      const double bits = std::bit_cast<double>(rng());
      return std::isnan(bits) ? 1.0 : bits;
    }
  }
}

std::vector<Fix> random_fixes(std::size_t n, Rng& rng) {
  // One degraded density per sequence: none, all, or a random share.
  const double p_degraded =
      std::vector<double>{0.0, 1.0, rng.uniform01()}[rng.uniform_int(0, 2)];
  std::vector<Fix> fixes(n);
  for (Fix& fix : fixes) {
    fix.time = edge_value(rng);
    fix.route_offset = edge_value(rng);
    fix.confidence = edge_value(rng);
    fix.degraded = rng.bernoulli(p_degraded);
  }
  return fixes;
}

void expect_bitwise_equal(const Fix& want, const Fix& got, std::size_t i) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.time),
            std::bit_cast<std::uint64_t>(got.time))
      << "time of fix " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.route_offset),
            std::bit_cast<std::uint64_t>(got.route_offset))
      << "route_offset of fix " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.confidence),
            std::bit_cast<std::uint64_t>(got.confidence))
      << "confidence of fix " << i;
  EXPECT_EQ(want.degraded, got.degraded) << "degraded of fix " << i;
}

TEST(FixLog, ReadsMatchVectorReferenceBitwise) {
  for (const std::size_t n : kLengths) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed);
      Rng rng(0xf1c5 * seed + n);
      const std::vector<Fix> want = random_fixes(n, rng);
      FixLog log;
      for (std::size_t i = 0; i < n; ++i) {
        log.push_back(want[i]);
        // back() tracks every append, across chunk boundaries.
        expect_bitwise_equal(want[i], log.back(), i);
      }
      ASSERT_EQ(log.size(), n);
      EXPECT_EQ(log.empty(), n == 0);
      for (std::size_t i = 0; i < n; ++i)
        expect_bitwise_equal(want[i], log[i], i);

      std::size_t i = 0;
      for (const Fix& fix : log) {
        ASSERT_LT(i, n);
        expect_bitwise_equal(want[i], fix, i);
        ++i;
      }
      EXPECT_EQ(i, n);

      const std::vector<Fix> copy(log.begin(), log.end());
      ASSERT_EQ(copy.size(), n);
      for (std::size_t k = 0; k < n; ++k)
        expect_bitwise_equal(want[k], copy[k], k);
    }
  }
}

TEST(FixLog, HeapIsTwentyFourBytesPerFixPlusOneChunk) {
  // Three doubles per fix and one degraded word per chunk; the only
  // slack is the unfilled tail of the last chunk and the chunk table's
  // doubling (8 B per chunk, at most twice over).
  constexpr std::size_t kChunkBytes =
      FixLog::kChunk * 3 * sizeof(double) + sizeof(std::uint64_t);
  for (const std::size_t n : kLengths) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(0x6865 + n);
    FixLog log;
    for (const Fix& fix : random_fixes(n, rng)) log.push_back(fix);
    const std::size_t chunks = (n + FixLog::kChunk - 1) / FixLog::kChunk;
    EXPECT_LE(log.heap_bytes(), n * 3 * sizeof(double) +
                                    chunks * sizeof(std::uint64_t) +
                                    (n % FixLog::kChunk == 0 ? 0
                                                             : kChunkBytes) +
                                    2 * chunks * sizeof(void*));
    EXPECT_GE(log.heap_bytes(), chunks * kChunkBytes);
  }
  EXPECT_EQ(FixLog().heap_bytes(), 0u);
}

}  // namespace
}  // namespace wiloc::core
