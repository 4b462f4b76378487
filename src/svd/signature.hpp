// Rank signatures — the currency of the Signal Voronoi Diagram.
//
// A k-order Signal Tile is identified by the ordered list of its k
// strongest APs (Proposition 1: the RSS values are ordered within each
// tile). Raw RSS swings by >10 dB at a fixed point, but this *ranking* is
// stable, which is the paper's whole premise.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rf/access_point.hpp"

namespace wiloc::svd {

/// An ordered AP ranking (strongest first, no duplicates). Order-1
/// signatures identify Signal Cells, order-2 the paper's Signal Tiles
/// ST(p_i, p_nj), order-k the k-order tiles.
class RankSignature {
 public:
  RankSignature() = default;

  /// Requires no duplicate APs.
  explicit RankSignature(std::vector<rf::ApId> ranked);

  /// The first k entries of a longer ranking (k clamped to its size).
  static RankSignature top_k(const std::vector<rf::ApId>& ranked,
                             std::size_t k);

  std::size_t order() const { return aps_.size(); }
  bool empty() const { return aps_.empty(); }

  /// Strongest AP (the Signal Cell's site). Requires non-empty.
  rf::ApId strongest() const;

  /// AP at rank position i (0 = strongest). Requires i < order().
  rf::ApId at(std::size_t i) const;

  const std::vector<rf::ApId>& aps() const { return aps_; }

  /// First k entries as a new signature (k clamped to order()).
  RankSignature prefix(std::size_t k) const;

  /// True when `other` is a prefix of *this.
  bool has_prefix(const RankSignature& other) const;

  /// "3>7>1"-style rendering.
  std::string to_string() const;

  friend bool operator==(const RankSignature& a, const RankSignature& b) {
    return a.aps_ == b.aps_;
  }
  friend bool operator<(const RankSignature& a, const RankSignature& b) {
    return a.aps_ < b.aps_;
  }

  /// FNV-style hash for unordered containers.
  std::size_t hash() const;

 private:
  std::vector<rf::ApId> aps_;
};

struct RankSignatureHash {
  std::size_t operator()(const RankSignature& s) const { return s.hash(); }
};

/// Agreement between an observed full ranking and a stored signature
/// (strongest AP first, no duplicates), in [0, 1]. Combines coverage (how
/// many of the signature's APs were heard) with pairwise order agreement
/// (Kendall-style) over the common APs, and rewards matching the
/// strongest AP. Returns 0 when nothing matches.
///
/// Dispatches to an SSE2 position-lookup kernel where the platform has
/// SSE2 (every x86-64 target) and is bit-identical to rank_consistency_scalar():
/// SIMD only changes how the integer AP positions are found, never the
/// floating-point scoring that consumes them.
double rank_consistency(const std::vector<rf::ApId>& observed,
                        std::span<const rf::ApId> signature);

/// The same score against a RankSignature's ranking.
inline double rank_consistency(const std::vector<rf::ApId>& observed,
                               const RankSignature& signature) {
  return rank_consistency(observed, std::span(signature.aps()));
}

/// Portable reference implementation (std::find inner loop). The parity
/// suite asserts rank_consistency() == rank_consistency_scalar() bit for
/// bit on randomized rankings.
double rank_consistency_scalar(const std::vector<rf::ApId>& observed,
                               std::span<const rf::ApId> signature);

/// Name of the compiled-in position-lookup kernel: "sse2" or "scalar". Benches record it next to ns/op numbers.
const char* rank_consistency_kernel();

}  // namespace wiloc::svd
