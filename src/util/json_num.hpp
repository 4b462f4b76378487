// The one number formatter: every JSON body, the scan codec, the
// metrics exposition (JSON and Prometheus) and the load driver print
// doubles through it, so they are byte-identical by construction.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>

namespace wiloc {

/// Room for any put_json_num output: %.12g is at most 19 characters
/// ("-1.23456789012e-308").
inline constexpr std::ptrdiff_t kJsonNumChars = 32;

/// Writes `v` as %.12g at `p` (non-finite -> null) and returns the end.
/// to_chars' general format with a precision is specified as printf's
/// %.{precision}g, so this is "%.12g" without the locale and varargs.
inline char* put_json_num(char* p, double v) {
  if (!std::isfinite(v)) {
    constexpr std::string_view kNull = "null";
    return std::copy(kNull.begin(), kNull.end(), p);
  }
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
