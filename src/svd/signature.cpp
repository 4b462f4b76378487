#include "svd/signature.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/contracts.hpp"

namespace wiloc::svd {

RankSignature::RankSignature(std::vector<rf::ApId> ranked)
    : aps_(std::move(ranked)) {
  for (std::size_t i = 0; i < aps_.size(); ++i)
    for (std::size_t j = i + 1; j < aps_.size(); ++j)
      WILOC_EXPECTS(aps_[i] != aps_[j]);
}

RankSignature RankSignature::top_k(const std::vector<rf::ApId>& ranked,
                                   std::size_t k) {
  std::vector<rf::ApId> head(
      ranked.begin(),
      ranked.begin() +
          static_cast<std::ptrdiff_t>(std::min(k, ranked.size())));
  return RankSignature(std::move(head));
}

rf::ApId RankSignature::strongest() const {
  WILOC_EXPECTS(!aps_.empty());
  return aps_.front();
}

rf::ApId RankSignature::at(std::size_t i) const {
  WILOC_EXPECTS(i < aps_.size());
  return aps_[i];
}

RankSignature RankSignature::prefix(std::size_t k) const {
  return top_k(aps_, k);
}

bool RankSignature::has_prefix(const RankSignature& other) const {
  if (other.aps_.size() > aps_.size()) return false;
  return std::equal(other.aps_.begin(), other.aps_.end(), aps_.begin());
}

std::string RankSignature::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    if (i > 0) out += '>';
    out += std::to_string(aps_[i].value());
  }
  return out.empty() ? "()" : out;
}

std::size_t RankSignature::hash() const {
  std::size_t h = 0xcbf29ce484222325ULL;
  for (const rf::ApId ap : aps_) {
    h ^= ap.value();
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Scoring stage shared by the scalar and SIMD entry points. Both hand it
// the same integer positions, so the floating-point result is bit-identical
// regardless of which kernel found them.
double score_positions(const std::ptrdiff_t* obs_pos, std::size_t order,
                       bool top_match) {
  std::size_t heard = 0;
  for (std::size_t i = 0; i < order; ++i)
    if (obs_pos[i] >= 0) ++heard;
  if (heard == 0) return 0.0;

  const double coverage =
      static_cast<double>(heard) / static_cast<double>(order);

  // Pairwise order agreement over the heard APs.
  std::size_t pairs = 0;
  std::size_t concordant = 0;
  for (std::size_t i = 0; i < order; ++i) {
    if (obs_pos[i] < 0) continue;
    for (std::size_t j = i + 1; j < order; ++j) {
      if (obs_pos[j] < 0) continue;
      ++pairs;
      if (obs_pos[i] < obs_pos[j]) ++concordant;
    }
  }
  const double agreement =
      pairs == 0 ? 1.0
                 : static_cast<double>(concordant) /
                       static_cast<double>(pairs);

  // Weights chosen so that exact matches score 1.0 and a completely
  // reversed or unheard signature scores near 0.
  return 0.45 * coverage + 0.40 * coverage * agreement +
         0.15 * (top_match ? 1.0 : 0.0);
}

// First index of `needle` in data[0..n), or -1. The SSE2 path compares
// 4 lanes per step and resolves the earliest match via movemask + ctz;
// ties within a vector cannot reorder because the mask's lowest set bit
// is the lowest index. ApId is a one-word wrapper whose object
// representation is exactly its u32 value, and GCC/Clang define __m128i
// with the may_alias attribute, so the vector loads read the ApId array
// in place — no unwrap copy on the hot path.
std::ptrdiff_t find_first_ap(const rf::ApId* data, std::size_t n,
                             rf::ApId needle) {
  static_assert(sizeof(rf::ApId) == sizeof(std::uint32_t));
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128i key = _mm_set1_epi32(static_cast<int>(needle.value()));
  for (; i + 4 <= n; i += 4) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(chunk, key)));
    if (mask != 0)
      return static_cast<std::ptrdiff_t>(
          i + static_cast<std::size_t>(__builtin_ctz(
                  static_cast<unsigned>(mask))));
  }
#endif
  for (; i < n; ++i)
    if (data[i] == needle) return static_cast<std::ptrdiff_t>(i);
  return -1;
}

// Signatures are short (order k); a stack position buffer keeps the
// scorer allocation-free on the locate hot path, with a heap fallback
// for unusually long signatures.
constexpr std::size_t kStackOrder = 16;

}  // namespace

const char* rank_consistency_kernel() {
#if defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

double rank_consistency_scalar(const std::vector<rf::ApId>& observed,
                               std::span<const rf::ApId> signature) {
  if (signature.empty() || observed.empty()) return 0.0;

  std::ptrdiff_t stack_pos[kStackOrder];
  std::vector<std::ptrdiff_t> heap_pos;
  std::ptrdiff_t* obs_pos = stack_pos;
  const std::size_t order = signature.size();
  if (order > kStackOrder) {
    heap_pos.resize(order);
    obs_pos = heap_pos.data();
  }
  for (std::size_t i = 0; i < order; ++i) {
    const auto it =
        std::find(observed.begin(), observed.end(), signature[i]);
    obs_pos[i] = it != observed.end() ? it - observed.begin() : -1;
  }
  return score_positions(obs_pos, order,
                         signature.front() == observed.front());
}

double rank_consistency(const std::vector<rf::ApId>& observed,
                        std::span<const rf::ApId> signature) {
  if (signature.empty() || observed.empty()) return 0.0;

  const std::size_t n = observed.size();
  // Length-adaptive dispatch: below two SSE2 vectors of lanes the
  // unrolled scalar std::find wins (sparse-area scans hear ~5 APs), so
  // short rankings take the reference path — which finds the same
  // integer positions, keeping the result bit-identical either way.
  constexpr std::size_t kSimdMinObserved = 8;
  if (n < kSimdMinObserved)
    return rank_consistency_scalar(observed, signature);

  const std::size_t order = signature.size();
  std::ptrdiff_t stack_pos[kStackOrder];
  std::vector<std::ptrdiff_t> heap_pos;
  std::ptrdiff_t* obs_pos = stack_pos;
  if (order > kStackOrder) {
    heap_pos.resize(order);
    obs_pos = heap_pos.data();
  }

  for (std::size_t i = 0; i < order; ++i)
    obs_pos[i] = find_first_ap(observed.data(), n, signature[i]);

  return score_positions(obs_pos, order,
                         signature.front() == observed.front());
}

}  // namespace wiloc::svd
