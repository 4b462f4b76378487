#include "core/fix_log.hpp"

namespace wiloc::core {

void FixLog::push_back(const Fix& fix) {
  const std::size_t j = size_ % kChunk;
  if (j == 0) chunks_.push_back(std::make_unique<Chunk>());
  Chunk& c = *chunks_.back();
  c.time[j] = fix.time;
  c.route_offset[j] = fix.route_offset;
  c.confidence[j] = fix.confidence;
  if (fix.degraded) c.degraded |= std::uint64_t{1} << j;
  ++size_;
}

std::size_t FixLog::heap_bytes() const {
  return chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
         chunks_.size() * sizeof(Chunk);
}

}  // namespace wiloc::core
