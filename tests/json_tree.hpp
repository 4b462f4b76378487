// A JSON tree for tests: the reference the streaming decoders are
// checked against (ScanCodec parity and mutation fuzz) and the reader
// tests use on response bodies. The server reads every request field
// with JsonReader (net/json.hpp); this tree is built on that same
// lexer, so it has the same grammar, nesting cap and error messages.
#pragma once

#include <map>
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
/// trailing garbage, and then sets `error` to the reader's first error.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace wiloc::net
