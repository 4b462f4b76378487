// The one JSON front end for what clients and peer nodes send in:
// request bodies (scan batches, trip registrations) and the upstream
// replies a router reads (scan acks, arrival answers).
//
// Parsing only — responses are rendered directly — plus the checked
// double -> integer conversion every numeric request field needs. The
// grammar is RFC 8259 minus \uXXXX surrogate pairs (escaped BMP code
// points are decoded; scan payloads are pure ASCII anyway). Depth and
// size are bounded by the HTTP layer's body limit plus an explicit
// nesting cap, so a hostile payload cannot blow the stack.
//
// JsonReader walks a body in one pass and lets each decoder
// (net/scan_codec: scan batches, trip bodies, acks) build only its own
// output. Its number grammar is
// read_json_number, which the query-string reader (HttpRequest::
// param_num) calls too, so one grammar decides what a number is in
// bodies and in query strings.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace wiloc::net {

/// RFC 8259's number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?:
/// reads the one that starts `s` into `out` and returns its length, or
/// 0 when `s` does not start with one or its value is out of a
/// double's range. Every number read is therefore finite; from_chars
/// alone would also take inf, nan, ".5" and "1.".
std::size_t read_json_number(std::string_view s, double* out);

/// A lexer for a decoder that walks one document without a DOM. A value
/// at nesting `depth` (the document is 0, an array item or member value
/// its container's depth + 1) is read by open() followed by exactly one
/// of skip(), array(), object() or a scalar read, or in one call by
/// skip_value() or value(). Every call returns false on a syntax error;
/// error() then holds the first one, with its byte offset.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Starts the value at `depth`: enforces the nesting cap, skips
  /// whitespace and sets `first` to the value's first character.
  bool open(std::size_t depth, char* first);
  /// Consumes the opened value, whatever its shape and depth.
  bool skip(char first, std::size_t depth);
  /// Opens and consumes the value at `depth`, whatever its shape.
  bool skip_value(std::size_t depth);
  /// Opens and consumes the value at `depth`; `number` is set to it
  /// when it is a number and to nullopt otherwise.
  bool value(std::size_t depth, std::optional<double>* number);
  /// Consumes the opened array ('[' first), calling item(depth + 1)
  /// once per element; item must read the element (open() first).
  template <typename Item>
  bool array(std::size_t depth, Item&& item);
  /// Consumes the opened object ('{' first), calling
  /// member(key, depth + 1) once per member in document order with the
  /// key unescaped; member must read the member's value.
  template <typename Member>
  bool object(std::size_t depth, Member&& member);
  /// Consume the opened scalar: the literal `word` (null, true or
  /// false), a string ('"' first; a null `out` only validates it), or
  /// a number (any other first character).
  bool literal(std::string_view word);
  bool string(std::string* out);
  bool number(double* out);
  /// Succeeds when only whitespace is left after the document.
  bool finish();

  const std::string& error() const { return error_; }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  void skip_ws();
  bool fail(std::string_view what);
  bool consume(char c);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

template <typename Item>
bool JsonReader::array(std::size_t depth, Item&& item) {
  ++pos_;  // '['
  skip_ws();
  if (!at_end() && text_[pos_] == ']') {
    ++pos_;
    return true;
  }
  while (true) {
    if (!item(depth + 1)) return false;
    skip_ws();
    if (at_end()) return fail("unterminated array");
    if (text_[pos_] != ',') return consume(']');
    ++pos_;
  }
}

template <typename Member>
bool JsonReader::object(std::size_t depth, Member&& member) {
  ++pos_;  // '{'
  skip_ws();
  if (!at_end() && text_[pos_] == '}') {
    ++pos_;
    return true;
  }
  std::string key;
  while (true) {
    skip_ws();
    if (!string(&key)) return false;
    skip_ws();
    if (!consume(':')) return false;
    if (!member(std::as_const(key), depth + 1)) return false;
    skip_ws();
    if (at_end()) return fail("unterminated object");
    if (text_[pos_] != ',') return consume('}');
    ++pos_;
  }
}

/// Escapes a string for embedding in a JSON document (adds quotes).
std::string json_quote(std::string_view s);

/// A request's numeric field (JSON member or query parameter) as an
/// integer id, count or index: nullopt unless it is present, finite,
/// integral and within T's range. Casting any other double to an
/// integer is undefined behaviour, so callers answer 400 instead.
template <std::integral T>
std::optional<T> checked_integer(std::optional<double> v) {
  // Both bounds are 0 or a power of two, so exact as doubles.
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!v.has_value() || !(*v == std::trunc(*v)) || *v < lo || !(*v < hi))
    return std::nullopt;
  return static_cast<T>(*v);
}

}  // namespace wiloc::net
