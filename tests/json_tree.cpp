#include "json_tree.hpp"

#include <utility>

#include "net/json.hpp"

namespace wiloc::net {

namespace {

/// parse_json's front end: builds the tree for the value at `depth`.
bool parse_value(JsonReader& in, JsonValue* out, std::size_t depth) {
  char c = 0;
  if (!in.open(depth, &c)) return false;
  switch (c) {
    case 'n':
      if (!in.literal("null")) return false;
      *out = JsonValue::make_null();
      return true;
    case 't':
    case 'f': {
      const bool b = c == 't';
      if (!in.literal(b ? "true" : "false")) return false;
      *out = JsonValue::make_bool(b);
      return true;
    }
    case '"': {
      std::string s;
      if (!in.string(&s)) return false;
      *out = JsonValue::make_string(std::move(s));
      return true;
    }
    case '[': {
      std::vector<JsonValue> items;
      const bool ok = in.array(depth, [&](std::size_t d) {
        items.emplace_back();
        return parse_value(in, &items.back(), d);
      });
      if (!ok) return false;
      *out = JsonValue::make_array(std::move(items));
      return true;
    }
    case '{': {
      std::map<std::string, JsonValue> members;
      const bool ok =
          in.object(depth, [&](const std::string& key, std::size_t d) {
            JsonValue value;
            if (!parse_value(in, &value, d)) return false;
            members[key] = std::move(value);  // a repeated key's last wins
            return true;
          });
      if (!ok) return false;
      *out = JsonValue::make_object(std::move(members));
      return true;
    }
    default: {
      double n = 0.0;
      if (!in.number(&n)) return false;
      *out = JsonValue::make_number(n);
      return true;
    }
  }
}

}  // namespace

std::optional<bool> JsonValue::as_bool() const {
  if (type_ != Type::boolean) return std::nullopt;
  return bool_;
}

std::optional<double> JsonValue::as_number() const {
  if (type_ != Type::number) return std::nullopt;
  return number_;
}

const std::string* JsonValue::as_string() const {
  return type_ == Type::string ? &string_ : nullptr;
}

const std::vector<JsonValue>* JsonValue::as_array() const {
  return type_ == Type::array ? &array_ : nullptr;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (type_ != Type::object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::optional<double> JsonValue::get_number(const std::string& key) const {
  const JsonValue* v = get(key);
  return v == nullptr ? std::nullopt : v->as_number();
}

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::boolean;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.type_ = Type::number;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::string;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::array;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::object;
  v.object_ = std::move(members);
  return v;
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  JsonReader in(text);
  JsonValue value;
  if (!parse_value(in, &value, 0) || !in.finish()) {
    if (error != nullptr) *error = in.error();
    return std::nullopt;
  }
  return value;
}


}  // namespace wiloc::net
