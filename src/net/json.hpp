// A minimal JSON reader for the HTTP request bodies the service
// accepts (scan batches, trip registrations).
//
// Parsing only — responses are rendered directly — plus the checked
// double -> integer conversion every numeric request field needs. The
// grammar is RFC 8259 minus \uXXXX surrogate pairs (escaped BMP code
// points are decoded; scan payloads are pure ASCII anyway). Depth and
// size are bounded by the HTTP layer's body limit plus an explicit
// nesting cap, so a hostile payload cannot blow the stack.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wiloc::net {

/// One parsed JSON value. Objects/arrays own their children.
class JsonValue {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::null; }

  /// Typed accessors; each returns nullopt/nullptr on a type mismatch.
  std::optional<bool> as_bool() const;
  std::optional<double> as_number() const;
  const std::string* as_string() const;
  const std::vector<JsonValue>* as_array() const;

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
  /// Convenience: member's numeric value, nullopt when missing/mistyped.
  std::optional<double> get_number(const std::string& key) const;

  // Construction (used by the parser; tests build values directly).
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Type type_ = Type::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document. Returns nullopt on any syntax error or
/// trailing garbage (the service answers 400 with `error` when set).
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

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
