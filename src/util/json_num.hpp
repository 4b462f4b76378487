// The one number formatter: every JSON body, the scan codec, the
// metrics exposition (JSON and Prometheus) and the load driver print
// doubles through it, so they are byte-identical by construction.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace wiloc {

/// Room for any put_json_num output: %.12g is at most 19 characters
/// ("-1.23456789012e-308").
inline constexpr std::ptrdiff_t kJsonNumChars = 32;

namespace detail {

__extension__ typedef unsigned __int128 U128;

inline constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 16> p{1};
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// %.12g of a finite, nonzero `v` whose decimal exponent X (after
/// rounding to 12 digits) is in [-4, 11], the fixed-notation range that
/// sim times, ETAs and RSSI live in; nullptr for any other `v`. Exact:
/// with v = m * 2^e (e < 0 here), the 12 digits are m * 10^(11-X)
/// shifted right by -e, rounded half to even on the bits shifted out,
/// which is how printf rounds the exact binary value. A 53-bit m times
/// at most 10^15 fits in 128 bits.
inline char* put_fixed_12g(char* p, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0) return nullptr;  // zero or subnormal
  const std::uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  const int shift = 1075 - biased;  // v = m / 2^shift
  if (shift <= 0 || shift >= 120) return nullptr;
  // floor(log10 2^(biased - 1023)) is X, X - 1 or (when rounding carries
  // into a new decade) X - 2; the loop settles it.
  int x = ((biased - 1023) * 78913) >> 18;
  std::uint64_t digits = 0;
  for (int tries = 0;; ++tries) {
    if (x < -4 || x > 11 || tries == 3) return nullptr;
    const U128 n = static_cast<U128>(m) * kPow10[11 - x];
    const U128 half = static_cast<U128>(1) << (shift - 1);
    const U128 rem = n & ((half << 1) - 1);
    digits = static_cast<std::uint64_t>(n >> shift);
    if (rem > half || (rem == half && (digits & 1) != 0)) ++digits;
    if (digits >= kPow10[12]) {
      ++x;
    } else if (digits < kPow10[11]) {
      --x;
    } else {
      break;
    }
  }
  char d[12];
  std::to_chars(d, d + 12, digits);
  int len = 12;
  while (d[len - 1] == '0') --len;  // d[0] != '0'
  if ((bits >> 63) != 0) *p++ = '-';
  if (x >= 0) {
    p = std::copy(d, d + x + 1, p);
    if (len > x + 1) {
      *p++ = '.';
      p = std::copy(d + x + 1, d + len, p);
    }
  } else {
    *p++ = '0';
    *p++ = '.';
    p = std::fill_n(p, -x - 1, '0');
    p = std::copy(d, d + len, p);
  }
  return p;
}

}  // namespace detail

/// Writes `v` as %.12g at `p` (non-finite -> null) and returns the end.
/// Magnitudes that print in fixed notation take detail::put_fixed_12g;
/// the rest take to_chars' general format with a precision, which is
/// specified as printf's %.{precision}g. Either way this is "%.12g"
/// without the locale and varargs.
inline char* put_json_num(char* p, double v) {
  if (!std::isfinite(v)) {
    constexpr std::string_view kNull = "null";
    return std::copy(kNull.begin(), kNull.end(), p);
  }
  if (char* end = detail::put_fixed_12g(p, v)) return end;
  constexpr auto kFormat = std::chars_format::general;
  return std::to_chars(p, p + kJsonNumChars, v, kFormat, 12).ptr;
}

/// JSON number in the exact form every encoder emits (%.12g,
/// non-finite -> null).
inline std::string json_num(double v) {
  char buf[kJsonNumChars];
  return std::string(buf, put_json_num(buf, v));
}

}  // namespace wiloc
