// SIMD/scalar parity for the rank_consistency kernel.
//
// The dispatched kernel (SSE2 or scalar, chosen at compile time) only
// changes how the integer AP positions are looked up in the observed
// ranking, so its double result must be bit-identical to the portable
// std::find reference — across odd lengths, vector-width boundaries,
// unheard APs, and duplicate-free tie layouts.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svd/signature.hpp"
#include "util/rng.hpp"

namespace wiloc::svd {
namespace {

using rf::ApId;

std::vector<ApId> ids(std::initializer_list<unsigned> values) {
  std::vector<ApId> out;
  for (const unsigned v : values) out.emplace_back(v);
  return out;
}

// EXPECT_EQ on doubles compares by value (0.0 == -0.0); the parity
// contract is stronger, so compare the raw bit patterns.
void expect_bit_identical(double a, double b, const std::string& what) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": dispatched=" << a << " scalar=" << b;
}

TEST(RankKernel, ReportsCompiledKernel) {
  const std::string kernel = rank_consistency_kernel();
  EXPECT_TRUE(kernel == "sse2" || kernel == "scalar") << kernel;
}

TEST(RankKernel, EmptyInputsMatchScalar) {
  const RankSignature sig(ids({1, 2}));
  const std::vector<ApId> none;
  expect_bit_identical(rank_consistency(none, sig),
                       rank_consistency_scalar(none, sig.aps()),
                       "empty observed");
  const RankSignature empty_sig;
  expect_bit_identical(rank_consistency(ids({1, 2}), empty_sig),
                       rank_consistency_scalar(ids({1, 2}), empty_sig.aps()),
                       "empty signature");
}

TEST(RankKernel, MatchesScalarAtVectorWidthBoundaries) {
  // Observed lengths straddling the SSE2 (4-lane) width and the
  // 8-entry SIMD cut-over, including the scalar tail after the last
  // full vector.
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                        31u, 32u, 33u}) {
    std::vector<ApId> observed;
    for (std::size_t i = 0; i < n; ++i)
      observed.emplace_back(static_cast<unsigned>(100 + i));
    // Signature hits the first, last, and one-past-the-end (unheard) ids.
    std::vector<ApId> sig_ids;
    sig_ids.emplace_back(100u);
    if (n > 1) sig_ids.emplace_back(static_cast<unsigned>(100 + n - 1));
    sig_ids.emplace_back(static_cast<unsigned>(100 + n));
    const RankSignature sig(sig_ids);
    expect_bit_identical(rank_consistency(observed, sig),
                         rank_consistency_scalar(observed, sig.aps()),
                         "n=" + std::to_string(n));
  }
}

TEST(RankKernel, RandomizedParity) {
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 2000; ++trial) {
    // Random-length observed ranking over a small id universe so that
    // signature/observed overlap, partial overlap, and total misses all
    // occur; ids stay unique within each ranking as the scan contract
    // requires.
    const std::size_t universe = static_cast<std::size_t>(
        rng.uniform_int(4, 96));
    std::vector<ApId> pool;
    for (std::size_t i = 0; i < universe; ++i)
      pool.emplace_back(static_cast<unsigned>(i * 7 + 3));
    rng.shuffle(pool);

    const std::size_t observed_len = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(universe)));
    const std::vector<ApId> observed(pool.begin(),
                                     pool.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             observed_len));

    rng.shuffle(pool);
    const std::size_t order = static_cast<std::size_t>(rng.uniform_int(
        1, std::min<std::int64_t>(24,
                                  static_cast<std::int64_t>(universe))));
    const RankSignature sig(std::vector<ApId>(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(order)));

    expect_bit_identical(rank_consistency(observed, sig),
                         rank_consistency_scalar(observed, sig.aps()),
                         "trial " + std::to_string(trial));
  }
}

TEST(RankKernel, LongSignatureHeapFallbackMatches) {
  // Orders past the stack buffer (16) exercise the heap path in both
  // implementations.
  std::vector<ApId> sig_ids;
  for (unsigned i = 0; i < 40; ++i) sig_ids.emplace_back(i);
  const RankSignature sig(sig_ids);
  std::vector<ApId> observed;
  for (unsigned i = 40; i-- > 0;) observed.emplace_back(i);  // reversed
  expect_bit_identical(rank_consistency(observed, sig),
                       rank_consistency_scalar(observed, sig.aps()),
                       "reversed order-40");
}

TEST(RankKernel, ScoresAreSane) {
  // Exact match scores 1.0; disjoint rankings score 0. Guards against a
  // kernel that is self-consistent but wrong.
  const RankSignature sig(ids({5, 6, 7}));
  EXPECT_DOUBLE_EQ(rank_consistency(ids({5, 6, 7}), sig), 1.0);
  EXPECT_DOUBLE_EQ(rank_consistency(ids({1, 2, 3}), sig), 0.0);
}

}  // namespace
}  // namespace wiloc::svd
