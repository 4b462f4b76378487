// HTTP/1.1 message types and an incremental request parser.
//
// The serving front-end is dependency-free: this header owns the wire
// format (request line, headers, fixed Content-Length bodies, keep-alive
// semantics) and nothing else. The parser is push-style — feed() accepts
// whatever bytes the socket produced and returns complete requests as
// they materialize — so the epoll loop never blocks on a slow client.
// Chunked transfer encoding is deliberately not supported: every client
// we serve (phones posting scan batches, scrapers hitting /metrics)
// sends sized bodies, and rejecting the rest keeps the attack surface
// small.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wiloc::net {

/// Case-insensitive comparison for header-name lookups (RFC 9110 §5.1).
struct CaseInsensitiveLess {
  bool operator()(const std::string& a, const std::string& b) const;
};

using HeaderMap = std::map<std::string, std::string, CaseInsensitiveLess>;

/// A numeric query parameter has three outcomes: absent, malformed
/// (present but not an RFC 8259 number, as read_json_number reads it),
/// or a value. A handler answers 400 for a malformed one rather than
/// read it as absent.
struct QueryNumber {
  bool present = false;
  std::optional<double> value{};  ///< set iff present and well-formed

  bool malformed() const { return present && !value.has_value(); }
  bool has_value() const { return value.has_value(); }
  /// Reads an absent *or malformed* parameter as `fallback`; a handler
  /// that must refuse a malformed one checks malformed() instead.
  double value_or(double fallback) const { return value.value_or(fallback); }
};

/// One parsed request. `target` is the raw request-target; `path` and
/// `query` are its percent-decoded split at the first '?'.
struct HttpRequest {
  std::string method{};
  std::string target{};
  std::string path{};
  std::map<std::string, std::string> query{};
  HeaderMap headers{};
  std::string body{};
  bool keep_alive = true;  ///< HTTP/1.1 default; honors Connection header

  /// Query parameter by name; nullopt when absent.
  std::optional<std::string> param(const std::string& name) const;
  /// Query parameter read with the JSON number grammar.
  QueryNumber param_num(const std::string& name) const;
};

/// One response under construction. Content-Length and the status reason
/// are filled in by serialize().
struct HttpResponse {
  int status = 200;
  HeaderMap headers;
  std::string body;

  static HttpResponse json(int status, std::string body);
  static HttpResponse text(int status, std::string body);
};

/// The {"error": message} body every 4xx/5xx of the service and the
/// router carries.
HttpResponse error_json(int status, std::string_view message);

/// 405 naming the one method the endpoint takes in its Allow header.
HttpResponse method_not_allowed(std::string_view allow);

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
std::string_view status_reason(int status);

/// Renders the response as HTTP/1.1 wire bytes. `keep_alive` controls
/// the Connection header (the server closes after writing otherwise).
std::string serialize(const HttpResponse& response, bool keep_alive);

/// Percent-decodes a URL component ("%2F" -> "/", "+" -> " ").
/// Malformed escapes are passed through verbatim.
std::string url_decode(std::string_view s);

/// Splits a raw request-target into a decoded path and query map.
void split_target(std::string_view target, std::string* path,
                  std::map<std::string, std::string>* query);

/// Why the parser rejected its input.
enum class ParseError {
  none,
  bad_request_line,
  bad_header,
  headers_too_large,
  body_too_large,
  unsupported_transfer_encoding,
  bad_content_length,
};

const char* to_string(ParseError error);

/// The response status a poisoned stream earns: 413 for an oversized
/// body, 431 for oversized start-line/headers, 400 for the rest.
int status_for(ParseError error);

/// Incremental HTTP/1.1 request parser for one connection. feed() bytes
/// in arrival order; take_request() yields complete requests FIFO.
/// After an error the parser is poisoned (the connection must be
/// closed with a 400 — there is no way to resynchronize a byte stream).
class RequestParser {
 public:
  struct Limits {
    std::size_t max_header_bytes = 64 * 1024;
    std::size_t max_body_bytes = 8 * 1024 * 1024;
  };

  RequestParser() : RequestParser(Limits{}) {}
  explicit RequestParser(Limits limits);

  /// Consumes bytes from the connection. Returns false when the stream
  /// is poisoned (error() says why).
  bool feed(std::string_view bytes);

  /// Pops the next complete request, if any.
  std::optional<HttpRequest> take_request();

  ParseError error() const { return error_; }
  bool failed() const { return error_ != ParseError::none; }

  /// True while a request is partially received (some head/body bytes
  /// buffered, none of them yet a complete request). The server's
  /// reaper uses this to tell a stalled mid-request client (408) from
  /// an idle keep-alive connection (silent close).
  bool mid_request() const {
    return partial_.has_value() || !buffer_.empty();
  }

 private:
  bool parse_available();
  bool parse_head(std::string_view head);
  bool fail(ParseError error);

  Limits limits_;
  std::string buffer_;
  std::vector<HttpRequest> ready_;
  std::optional<HttpRequest> partial_;  ///< head parsed, body incomplete
  std::size_t body_needed_ = 0;
  ParseError error_ = ParseError::none;
};

}  // namespace wiloc::net
