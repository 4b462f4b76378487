// Append-only per-trip fix history.
//
// The server keeps every bus's fix trajectory for the length of its trip
// (segment travel times, stalled-trajectory anomaly windows), so across
// a city it is the largest state that grows with every scan. FixLog
// stores it column-wise in fixed chunks of kChunk fixes: `time`,
// `route_offset` and `confidence` as exact doubles, plus one word of
// `degraded` bits per chunk — 24 B per fix, no doubling slack and no
// copying on growth. Reads rebuild a Fix by value; every field comes
// back bit-identical to what was appended.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/mobility_filter.hpp"

namespace wiloc::core {

class FixLog {
 public:
  /// Fixes per chunk: one word of degraded bits covers a chunk.
  static constexpr std::size_t kChunk = 64;

  /// Forward iterator yielding Fix by value.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Fix;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Fix;

    const_iterator() = default;
    Fix operator*() const { return (*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class FixLog;
    const_iterator(const FixLog* log, std::size_t i) : log_(log), i_(i) {}
    const FixLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  void push_back(const Fix& fix);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The i-th fix appended (i < size()).
  Fix operator[](std::size_t i) const {
    const Chunk& c = *chunks_[i / kChunk];
    const std::size_t j = i % kChunk;
    return {c.time[j], c.route_offset[j], c.confidence[j],
            ((c.degraded >> j) & 1U) != 0};
  }
  Fix back() const { return (*this)[size_ - 1]; }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Heap bytes held: the chunks and the chunk table (no allocator
  /// overhead).
  std::size_t heap_bytes() const;

 private:
  struct Chunk {
    std::array<double, kChunk> time;
    std::array<double, kChunk> route_offset;
    std::array<double, kChunk> confidence;
    std::uint64_t degraded = 0;  ///< bit j = fix j of the chunk
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace wiloc::core
