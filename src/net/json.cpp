#include "net/json.hpp"

#include <charconv>
#include <cstdio>

namespace wiloc::net {

namespace {

constexpr std::size_t kMaxDepth = 64;

}  // namespace

std::size_t read_json_number(std::string_view s, double* out) {
  // The grammar is checked first because from_chars takes more; it then
  // converts exactly the token.
  std::size_t i = 0;
  const auto peek = [&](char c) { return i < s.size() && s[i] == c; };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  if (peek('-')) ++i;
  if (peek('0'))
    ++i;
  else if (!digits())
    return 0;
  if (peek('.')) {
    ++i;
    if (!digits()) return 0;
  }
  if (peek('e') || peek('E')) {
    ++i;
    if (peek('+') || peek('-')) ++i;
    if (!digits()) return 0;
  }
  const char* end = s.data() + i;
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc{} && ptr == end ? i : 0;
}

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
  // An error names the token's first offset.
  const std::size_t n = read_json_number(text_.substr(pos_), out);
  if (n == 0) return fail("bad number");
  pos_ += n;
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
