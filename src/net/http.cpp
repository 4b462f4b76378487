#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "net/json.hpp"

namespace wiloc::net {

namespace {

char lower(char c) {
  return static_cast<char>(
      std::tolower(static_cast<unsigned char>(c)));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](char x, char y) { return lower(x) == lower(y); });
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

bool CaseInsensitiveLess::operator()(const std::string& a,
                                     const std::string& b) const {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](char x, char y) { return lower(x) < lower(y); });
}

std::optional<std::string> HttpRequest::param(
    const std::string& name) const {
  const auto it = query.find(name);
  if (it == query.end()) return std::nullopt;
  return it->second;
}

QueryNumber HttpRequest::param_num(const std::string& name) const {
  const auto it = query.find(name);
  if (it == query.end()) return {};
  QueryNumber out{.present = true};
  double value = 0.0;
  const std::string& text = it->second;
  if (!text.empty() && read_json_number(text, &value) == text.size())
    out.value = value;
  return out;
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.headers["Content-Type"] = "application/json";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.headers["Content-Type"] = "text/plain; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse error_json(int status, std::string_view message) {
  return HttpResponse::json(status,
                            "{\"error\":" + json_quote(message) + "}");
}

HttpResponse method_not_allowed(std::string_view allow) {
  HttpResponse r = error_json(405, "method not allowed");
  r.headers["Allow"] = std::string(allow);
  return r;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string serialize(const HttpResponse& response, bool keep_alive) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << ' '
      << status_reason(response.status) << "\r\n";
  for (const auto& [name, value] : response.headers)
    out << name << ": " << value << "\r\n";
  out << "Content-Length: " << response.body.size() << "\r\n";
  out << "Connection: " << (keep_alive ? "keep-alive" : "close") << "\r\n";
  out << "\r\n";
  out << response.body;
  return out.str();
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]);
      const int lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

void split_target(std::string_view target, std::string* path,
                  std::map<std::string, std::string>* query) {
  const std::size_t qpos = target.find('?');
  *path = url_decode(target.substr(0, qpos));
  query->clear();
  if (qpos == std::string_view::npos) return;
  std::string_view rest = target.substr(qpos + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (!pair.empty()) {
      std::string key = url_decode(pair.substr(0, eq));
      std::string value =
          eq == std::string_view::npos ? "" : url_decode(pair.substr(eq + 1));
      (*query)[std::move(key)] = std::move(value);
    }
    if (amp == std::string_view::npos) break;
    rest.remove_prefix(amp + 1);
  }
}

const char* to_string(ParseError error) {
  switch (error) {
    case ParseError::none: return "none";
    case ParseError::bad_request_line: return "bad request line";
    case ParseError::bad_header: return "bad header";
    case ParseError::headers_too_large: return "headers too large";
    case ParseError::body_too_large: return "body too large";
    case ParseError::unsupported_transfer_encoding:
      return "unsupported transfer encoding";
    case ParseError::bad_content_length: return "bad content length";
  }
  return "?";
}

int status_for(ParseError error) {
  switch (error) {
    case ParseError::body_too_large: return 413;
    case ParseError::headers_too_large: return 431;
    default: return 400;
  }
}

RequestParser::RequestParser(Limits limits) : limits_(limits) {}

bool RequestParser::fail(ParseError error) {
  error_ = error;
  buffer_.clear();
  partial_.reset();
  return false;
}

bool RequestParser::feed(std::string_view bytes) {
  if (failed()) return false;
  buffer_.append(bytes);
  return parse_available();
}

std::optional<HttpRequest> RequestParser::take_request() {
  if (ready_.empty()) return std::nullopt;
  HttpRequest r = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return r;
}

bool RequestParser::parse_available() {
  for (;;) {
    if (partial_.has_value()) {
      if (buffer_.size() < body_needed_) return true;  // need more bytes
      partial_->body = buffer_.substr(0, body_needed_);
      buffer_.erase(0, body_needed_);
      ready_.push_back(std::move(*partial_));
      partial_.reset();
      body_needed_ = 0;
      continue;
    }
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes)
        return fail(ParseError::headers_too_large);
      return true;
    }
    if (head_end > limits_.max_header_bytes)
      return fail(ParseError::headers_too_large);
    const std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    if (!parse_head(head)) return false;
  }
}

bool RequestParser::parse_head(std::string_view head) {
  HttpRequest req;
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos)
    return fail(ParseError::bad_request_line);
  req.method = std::string(request_line.substr(0, sp1));
  req.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = request_line.substr(sp2 + 1);
  if (req.method.empty() || req.target.empty() ||
      (version != "HTTP/1.1" && version != "HTTP/1.0"))
    return fail(ParseError::bad_request_line);
  req.keep_alive = version == "HTTP/1.1";
  split_target(req.target, &req.path, &req.query);

  std::string_view rest =
      line_end == std::string_view::npos ? "" : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? "" : rest.substr(eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return fail(ParseError::bad_header);
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (name.empty()) return fail(ParseError::bad_header);
    req.headers[std::string(name)] = std::string(value);
  }

  const auto connection = req.headers.find("Connection");
  if (connection != req.headers.end()) {
    if (iequals(connection->second, "close")) req.keep_alive = false;
    if (iequals(connection->second, "keep-alive")) req.keep_alive = true;
  }
  if (req.headers.count("Transfer-Encoding") > 0)
    return fail(ParseError::unsupported_transfer_encoding);

  std::size_t content_length = 0;
  const auto cl = req.headers.find("Content-Length");
  if (cl != req.headers.end()) {
    const std::string& s = cl->second;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), content_length);
    if (ec != std::errc{} || ptr != s.data() + s.size())
      return fail(ParseError::bad_content_length);
    if (content_length > limits_.max_body_bytes)
      return fail(ParseError::body_too_large);
  }

  if (content_length == 0) {
    ready_.push_back(std::move(req));
  } else {
    partial_ = std::move(req);
    body_needed_ = content_length;
  }
  return true;
}

}  // namespace wiloc::net
