#include "net/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace wiloc::net {

namespace {

constexpr std::size_t kMaxDepth = 64;

}  // namespace

void JsonReader::skip_ws() {
  while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                       text_[pos_] == '\n' || text_[pos_] == '\r'))
    ++pos_;
}

bool JsonReader::fail(std::string_view what) {
  if (error_.empty())
    error_ = std::string(what) + " at offset " + std::to_string(pos_);
  return false;
}

bool JsonReader::consume(char c) {
  if (at_end() || text_[pos_] != c)
    return fail(std::string("expected '") + c + "'");
  ++pos_;
  return true;
}

bool JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
  pos_ += word.size();
  return true;
}

bool JsonReader::string(std::string* out) {
  if (!consume('"')) return false;
  if (out != nullptr) out->clear();
  const auto put = [out](char c) {
    if (out != nullptr) out->push_back(c);
  };
  while (true) {
    if (at_end()) return fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20)
      return fail("control character in string");
    if (c != '\\') {
      put(c);
      continue;
    }
    if (at_end()) return fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': put('"'); break;
      case '\\': put('\\'); break;
      case '/': put('/'); break;
      case 'b': put('\b'); break;
      case 'f': put('\f'); break;
      case 'n': put('\n'); break;
      case 'r': put('\r'); break;
      case 't': put('\t'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode a BMP code point (no surrogate pairs).
        if (code < 0x80) {
          put(static_cast<char>(code));
        } else if (code < 0x800) {
          put(static_cast<char>(0xC0 | (code >> 6)));
          put(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          put(static_cast<char>(0xE0 | (code >> 12)));
          put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          put(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: return fail("bad escape");
    }
  }
}

bool JsonReader::number(double* out) {
  // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?. The
  // grammar is checked first because from_chars also takes inf, nan
  // and "1."; it then converts exactly the token. An error names the
  // token's first offset.
  const std::size_t start = pos_;
  const auto peek = [this](char c) { return !at_end() && text_[pos_] == c; };
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > from;
  };
  const auto bad = [&] {
    pos_ = start;
    return fail("bad number");
  };
  if (peek('-')) ++pos_;
  if (peek('0'))
    ++pos_;
  else if (!digits())
    return bad();
  if (peek('.')) {
    ++pos_;
    if (!digits()) return bad();
  }
  if (peek('e') || peek('E')) {
    ++pos_;
    if (peek('+') || peek('-')) ++pos_;
    if (!digits()) return bad();
  }
  const char* end = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(text_.data() + start, end, *out);
  if (ec != std::errc{} || ptr != end) return bad();
  return true;
}

bool JsonReader::open(std::size_t depth, char* first) {
  if (depth > kMaxDepth) return fail("nesting too deep");
  skip_ws();
  if (at_end()) return fail("unexpected end of input");
  *first = text_[pos_];
  return true;
}

bool JsonReader::skip(char first, std::size_t depth) {
  switch (first) {
    case 'n': return literal("null");
    case 't': return literal("true");
    case 'f': return literal("false");
    case '"': return string(nullptr);
    case '[':
      return array(depth, [this](std::size_t d) { return skip_value(d); });
    case '{':
      return object(depth, [this](const std::string&, std::size_t d) {
        return skip_value(d);
      });
    default: {
      double ignored = 0.0;
      return number(&ignored);
    }
  }
}

bool JsonReader::skip_value(std::size_t depth) {
  char c = 0;
  return open(depth, &c) && skip(c, depth);
}

bool JsonReader::value(std::size_t depth, std::optional<double>* number) {
  char c = 0;
  if (!open(depth, &c)) return false;
  switch (c) {
    case 'n': case 't': case 'f': case '"': case '[': case '{':
      *number = std::nullopt;
      return skip(c, depth);
    default: {
      double v = 0.0;
      if (!this->number(&v)) return false;
      *number = v;
      return true;
    }
  }
}

bool JsonReader::finish() {
  skip_ws();
  if (at_end()) return true;
  if (error_.empty()) error_ = "trailing garbage";
  return false;
}

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

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace wiloc::net
