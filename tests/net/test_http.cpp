#include "net/http.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <regex>
#include <string>

#include "../json_tree.hpp"
#include "net/json.hpp"
#include "util/rng.hpp"

namespace wiloc::net {
namespace {

TEST(HttpParser, SimpleGet) {
  RequestParser p;
  ASSERT_TRUE(p.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/healthz");
  EXPECT_TRUE(req->body.empty());
  EXPECT_TRUE(req->keep_alive);
  EXPECT_FALSE(p.take_request().has_value());
}

TEST(HttpParser, QueryDecoding) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "GET /v1/arrival?route=2&stop=5&label=a%20b+c HTTP/1.1\r\n\r\n"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->path, "/v1/arrival");
  EXPECT_EQ(req->param("route").value_or(""), "2");
  EXPECT_EQ(req->param_num("stop").value_or(-1), 5.0);
  EXPECT_EQ(req->param("label").value_or(""), "a b c");
  EXPECT_FALSE(req->param("missing").has_value());
  EXPECT_FALSE(req->param_num("label").has_value());  // not a number
}

TEST(HttpParser, PostBodySplitAcrossFeeds) {
  RequestParser p;
  ASSERT_TRUE(p.feed("POST /v1/scans HTTP/1.1\r\nContent-Le"));
  EXPECT_FALSE(p.take_request().has_value());
  ASSERT_TRUE(p.feed("ngth: 11\r\n\r\nhello"));
  EXPECT_FALSE(p.take_request().has_value());  // body incomplete
  ASSERT_TRUE(p.feed(" world"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->body, "hello world");
}

TEST(HttpParser, PipelinedRequests) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n"));
  const auto a = p.take_request();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->path, "/a");
  EXPECT_TRUE(a->keep_alive);
  const auto b = p.take_request();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->path, "/b");
  EXPECT_FALSE(b->keep_alive);
}

TEST(HttpParser, HeaderLookupIsCaseInsensitive) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nX-Foo: bar\r\n\r\nok"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.at("x-foo"), "bar");
  EXPECT_EQ(req->headers.at("X-FOO"), "bar");
}

TEST(HttpParser, RejectsBadRequestLine) {
  RequestParser p;
  EXPECT_FALSE(p.feed("nonsense\r\n\r\n"));
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::bad_request_line);
  // Poisoned: further feeds stay failed.
  EXPECT_FALSE(p.feed("GET / HTTP/1.1\r\n\r\n"));
}

TEST(HttpParser, RejectsChunkedTransferEncoding) {
  RequestParser p;
  EXPECT_FALSE(p.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::unsupported_transfer_encoding);
}

TEST(HttpParser, RejectsBadContentLength) {
  RequestParser p;
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: frog\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::bad_content_length);
}

TEST(HttpParser, EnforcesHeaderLimit) {
  RequestParser p(RequestParser::Limits{/*max_header_bytes=*/64,
                                        /*max_body_bytes=*/1024});
  std::string big = "GET / HTTP/1.1\r\nX-Pad: ";
  big.append(200, 'x');
  big += "\r\n\r\n";
  EXPECT_FALSE(p.feed(big));
  EXPECT_EQ(p.error(), ParseError::headers_too_large);
}

TEST(HttpParser, EnforcesBodyLimit) {
  RequestParser p(RequestParser::Limits{/*max_header_bytes=*/1024,
                                        /*max_body_bytes=*/8});
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::body_too_large);
}

TEST(HttpSerialize, AddsContentLengthAndConnection) {
  HttpResponse r = HttpResponse::json(200, "{\"ok\":true}");
  const std::string wire = serialize(r, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  const std::string closing = serialize(HttpResponse::text(404, "gone"),
                                        /*keep_alive=*/false);
  EXPECT_NE(closing.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

TEST(Json, ParsesScanBatchShape) {
  const auto doc = parse_json(
      R"({"scans":[{"trip":7,"t":12.5,"readings":[[1,-60.5],[2,-71]]}]})");
  ASSERT_TRUE(doc.has_value());
  const auto* scans = doc->get("scans");
  ASSERT_NE(scans, nullptr);
  const auto* items = scans->as_array();
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 1u);
  EXPECT_EQ((*items)[0].get_number("trip").value_or(-1), 7.0);
  EXPECT_EQ((*items)[0].get_number("t").value_or(-1), 12.5);
  const auto* readings = (*items)[0].get("readings")->as_array();
  ASSERT_NE(readings, nullptr);
  EXPECT_EQ((*(*readings)[0].as_array())[1].as_number().value_or(0), -60.5);
}

TEST(Json, ParsesEscapesAndLiterals) {
  const auto doc =
      parse_json(R"({"s":"a\"b\nA","b":true,"n":null,"e":-1.5e2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc->get("s")->as_string(), "a\"b\nA");
  EXPECT_EQ(doc->get("b")->as_bool().value_or(false), true);
  EXPECT_TRUE(doc->get("n")->is_null());
  EXPECT_EQ(doc->get_number("e").value_or(0), -150.0);
}

TEST(Json, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_json("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_json("{'a':1}").has_value());
  EXPECT_FALSE(parse_json("").has_value());
  // Nesting bomb bounces off the depth cap instead of the stack.
  std::string bomb(100, '[');
  EXPECT_FALSE(parse_json(bomb).has_value());
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, CheckedIntegerAcceptsOnlyExactInRangeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(checked_integer<std::uint32_t>(0.0), 0u);
  EXPECT_EQ(checked_integer<std::uint32_t>(-0.0), 0u);
  EXPECT_EQ(checked_integer<std::uint32_t>(4294967295.0), 4294967295u);
  EXPECT_FALSE(checked_integer<std::uint32_t>(4294967296.0).has_value());
  EXPECT_FALSE(checked_integer<std::uint32_t>(-1.0).has_value());
  EXPECT_FALSE(checked_integer<std::uint32_t>(1.5).has_value());
  EXPECT_FALSE(checked_integer<std::uint32_t>(std::nan("")).has_value());
  EXPECT_FALSE(checked_integer<std::uint32_t>(inf).has_value());
  EXPECT_FALSE(checked_integer<std::uint32_t>(std::nullopt).has_value());
  EXPECT_EQ(checked_integer<std::uint64_t>(0x1p63), 1ULL << 63);
  EXPECT_FALSE(checked_integer<std::uint64_t>(0x1p64).has_value());
  EXPECT_FALSE(checked_integer<std::size_t>(1e30).has_value());
  EXPECT_EQ(checked_integer<std::int32_t>(-2147483648.0), INT32_MIN);
  EXPECT_FALSE(checked_integer<std::int32_t>(2147483648.0).has_value());
}

TEST(Json, ReadJsonNumberTakesOnlyRfc8259Numbers) {
  // (text, length read): the number that starts the text, or 0.
  const std::pair<const char*, std::size_t> cases[] = {
      {"0", 1},      {"-0", 2},     {"12.5e-3", 7}, {"1E+2", 4},
      {"1.5e3x", 5}, {"01", 1},     {"0x10", 1},    {"5.", 0},
      {".5", 0},     {"-", 0},      {"1e", 0},      {"1e+", 0},
      {"+1", 0},     {" 1", 0},     {"inf", 0},     {"-nan", 0},
      {"1e400", 0},  {"-1e400", 0}, {"1e-400", 0},  {"", 0}};
  for (const auto& [text, length] : cases) {
    double value = 0.0;
    EXPECT_EQ(read_json_number(text, &value), length) << text;
  }
  double value = 0.0;
  ASSERT_EQ(read_json_number("-12.5e-1", &value), 8u);
  EXPECT_EQ(value, -1.25);
}

TEST(HttpParser, QueryNumberIsAbsentMalformedOrAValue) {
  HttpRequest request;
  split_target("/v1/arrival?stop=3&now=1.&trip=&route=-0.5e1", &request.path,
               &request.query);
  const QueryNumber stop = request.param_num("stop");
  EXPECT_TRUE(stop.present);
  EXPECT_EQ(stop.value, 3.0);
  for (const char* name : {"now", "trip"}) {
    const QueryNumber bad = request.param_num(name);
    EXPECT_TRUE(bad.present) << name;
    EXPECT_TRUE(bad.malformed()) << name;
  }
  EXPECT_EQ(request.param_num("route").value, -5.0);
  const QueryNumber absent = request.param_num("after");
  EXPECT_FALSE(absent.present);
  EXPECT_FALSE(absent.malformed());
}

// -- seeded mutation fuzz of the query reader -----------------------------

/// The RFC 8259 check stated independently of read_json_number: the
/// grammar as a regex, and the range as strtod sees it (overflow to
/// infinity, or underflow of a nonzero mantissa to zero, is out).
std::optional<double> rfc_number(const std::string& text) {
  static const std::regex grammar(
      R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  if (!std::regex_match(text, grammar)) return std::nullopt;
  const double value = std::strtod(text.c_str(), nullptr);
  const std::string mantissa = text.substr(0, text.find_first_of("eE"));
  const bool nonzero =
      mantissa.find_first_of("123456789") != std::string::npos;
  if (!std::isfinite(value) || (value == 0.0 && nonzero)) return std::nullopt;
  return value;
}

TEST(HttpParser, QueryReaderMutationFuzzAgreesWithRfcNumberCheck) {
  const std::vector<std::string> seeds = {
      "/v1/arrival?trip=5&route=0&stop=3&now=12.5",
      "/v1/arrival?route=0&stop=03&now=.5&trip=0x10",
      "/v1/replication/segments?after=18446744073709551615&max_bytes=4096",
      "/v1/position?trip=-0",
      "/v1/traffic-map?now=1e308&now=-1E-5",
      "/x?a=1e5&b=%2D1&c=1%2E5&d=+1&e=&f&=g&h=1e-320",
      "/x?n=-12.5e%2B3&m=2e-324&k=1e309&j=nan&i=inf"};
  const char* const tokens[] = {
      "&",   "=",   "?",   "%",    "%2E", "%2D", "%2B", "%45", "%00", "%zz",
      "+",   "-",   ".",   "e",    "E",   "0",   "1",   "9",   "nan", "inf",
      "0x",  " ",   "trip", "now", "\xff", "1e400", "4.9e-324"};
  const auto pick = [](Rng& rng, std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  Rng rng(0x9e7);
  constexpr int kMutants = 20000;
  std::size_t values = 0, malformed = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string target = seeds[pick(rng, seeds.size())];
    for (std::size_t e = 1 + pick(rng, 3); e > 0; --e) {
      const std::size_t at = pick(rng, target.size() + 1);
      switch (pick(rng, 4)) {
        case 0:  // insert a token
          target.insert(at, tokens[pick(rng, std::size(tokens))]);
          break;
        case 1:  // delete a run
          target.erase(at, 1 + pick(rng, 4));
          break;
        case 2:  // overwrite one byte with a number character
          if (at < target.size()) target[at] = "0123456789.-eE+"[pick(rng, 15)];
          break;
        default:  // overwrite one byte
          if (at < target.size())
            target[at] = static_cast<char>(pick(rng, 256));
      }
    }
    HttpRequest request;
    ASSERT_NO_THROW(split_target(target, &request.path, &request.query))
        << target;
    for (const auto& [name, text] : request.query) {
      QueryNumber q;
      ASSERT_NO_THROW(q = request.param_num(name)) << target;
      ASSERT_TRUE(q.present) << target;
      const std::optional<double> want = rfc_number(text);
      ASSERT_EQ(q.value.has_value(), want.has_value())
          << "mutant " << i << ": " << target << "\n  " << name << "="
          << text;
      if (want.has_value()) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(*q.value),
                  std::bit_cast<std::uint64_t>(*want))
            << target;
        ++values;
      } else {
        ++malformed;
      }
    }
    ASSERT_FALSE(request.param_num("absent-name").present);
  }
  // The budget reaches both outcomes.
  EXPECT_GT(values, static_cast<std::size_t>(kMutants));
  EXPECT_GT(malformed, static_cast<std::size_t>(kMutants / 4));
}

}  // namespace
}  // namespace wiloc::net
