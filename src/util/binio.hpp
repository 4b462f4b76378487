// Little-endian binary buffer codec for the persistence layer.
//
// Snapshot bodies and journal frames are built in memory with BinWriter
// and decoded with BinReader. The format is explicit little-endian
// (byte-by-byte), so files written on one host read back on any other.
// BinReader bounds-checks every read and throws wiloc::Error on
// underflow, so a truncated or corrupt payload surfaces as a catchable
// decode failure rather than undefined behaviour.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace wiloc {

/// Raised when a binary payload cannot be decoded (truncated buffer,
/// impossible length field, unknown record version).
class DecodeError : public Error {
 public:
  explicit DecodeError(const std::string& what) : Error(what) {}
};

/// Append-only little-endian byte buffer.
class BinWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }

  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u32) byte string.
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Empties the buffer, keeping its capacity for reuse.
  void clear() { buf_.clear(); }

  std::size_t size() const { return buf_.size(); }
  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a byte span (not owning).
class BinReader {
 public:
  explicit BinReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n)
      throw DecodeError("BinReader: truncated payload (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(remaining()) + ")");
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace wiloc
