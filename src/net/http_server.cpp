#include "net/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/contracts.hpp"

namespace wiloc::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// EWMA smoothing for the admission latency signal.
constexpr double kLatencyAlpha = 0.1;

std::string retry_after_value(double retry_after_s) {
  return std::to_string(
      static_cast<long>(std::ceil(std::max(retry_after_s, 0.0))));
}

}  // namespace

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  WILOC_EXPECTS(handler_ != nullptr);
  if (options_.registry != nullptr) {
    obs::Registry& r = *options_.registry;
    requests_ = &r.counter("http.requests");
    responses_4xx_ = &r.counter("http.responses_4xx");
    responses_5xx_ = &r.counter("http.responses_5xx");
    accepted_ = &r.counter("http.connections_accepted");
    rejected_overload_ = &r.counter("http.connections_rejected_overload");
    parse_errors_ = &r.counter("http.parse_errors");
    idle_reaped_ = &r.counter("http.connections_idle_reaped");
    shed_ = &r.counter("http.shed");
    deadline_exceeded_ = &r.counter("http.deadline_exceeded");
    rate_limited_ = &r.counter("http.rate_limited");
    timeouts_408_ = &r.counter("http.timeouts_408");
    write_stalls_ = &r.counter("http.write_stalls_closed");
    open_gauge_ = &r.gauge("http.connections_open");
    inflight_gauge_ = &r.gauge("http.inflight_responses");
    latency_ewma_gauge_ = &r.gauge("http.latency_ewma_us");
    handler_us_ = &r.histogram("http.handler_us");
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  WILOC_EXPECTS(!running());
  // stop() doubles as the cleanup for a half-built start: with running_
  // still false it only closes whatever fds were opened.
  const auto fail = [this](const std::string& what) {
    stop();
    throw Error("http: " + what);
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1)
    fail("bad bind address " + options_.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    fail("bind(" + options_.bind_address + ":" +
         std::to_string(options_.port) + ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) fail("listen() failed");
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) fail("epoll/eventfd setup failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void HttpServer::stop() noexcept {
  if (running_.exchange(false, std::memory_order_acq_rel) && wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
  }
  if (thread_.joinable()) thread_.join();
  for (auto& [fd, c] : connections_) ::close(fd);
  connections_.clear();
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  // A restarted server begins with fresh admission state.
  inflight_ = 0;
  latency_ewma_us_ = 0.0;
  buckets_.clear();
  last_bucket_gc_ = 0.0;
  open_.store(0, std::memory_order_relaxed);
  if (open_gauge_ != nullptr) open_gauge_->set(0.0);
  if (inflight_gauge_ != nullptr) inflight_gauge_->set(0.0);
}

double HttpServer::monotonic_s() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void HttpServer::loop() {
  // The sweep must fire well inside the tightest timeout it enforces.
  double sweep_period = 1.0;
  if (options_.stall_timeout_s > 0.0)
    sweep_period = std::min(sweep_period, options_.stall_timeout_s / 4.0);
  if (options_.request_deadline_s > 0.0)
    sweep_period = std::min(sweep_period, options_.request_deadline_s / 4.0);
  sweep_period = std::max(sweep_period, 0.01);
  const int wait_ms = std::clamp(
      static_cast<int>(sweep_period * 1000.0), 10, 1000);

  std::vector<epoll_event> events(128);
  double last_sweep = monotonic_s();
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r =
            ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(fd);
      if (it != connections_.end())
        connection_ready(*it->second, events[i].events);
    }
    const double now = monotonic_s();
    if (now - last_sweep >= sweep_period) {
      sweep_idle(now);
      last_sweep = now;
    }
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                  &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: try next wakeup
    if (connections_.size() >= options_.max_connections) {
      if (rejected_overload_ != nullptr) rejected_overload_->inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->peer = ntohl(peer.sin_addr.s_addr);
    conn->last_activity = monotonic_s();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    if (accepted_ != nullptr) accepted_->inc();
    open_.store(connections_.size(), std::memory_order_relaxed);
    if (open_gauge_ != nullptr)
      open_gauge_->set(static_cast<double>(connections_.size()));
  }
}

void HttpServer::add_inflight(std::size_t n) {
  inflight_ += n;
  if (inflight_gauge_ != nullptr)
    inflight_gauge_->set(static_cast<double>(inflight_));
}

void HttpServer::sub_inflight(std::size_t n) {
  inflight_ -= std::min(n, inflight_);
  if (inflight_gauge_ != nullptr)
    inflight_gauge_->set(static_cast<double>(inflight_));
}

void HttpServer::count_response_status(int status) {
  if (status >= 500 && responses_5xx_ != nullptr)
    responses_5xx_->inc();
  else if (status >= 400 && responses_4xx_ != nullptr)
    responses_4xx_->inc();
}

std::optional<HttpResponse> HttpServer::admit(const HttpRequest& request,
                                              const Connection& c,
                                              double now) {
  for (const std::string& path : options_.control_paths)
    if (request.path == path) return std::nullopt;

  if (options_.rate_limit_rps > 0.0) {
    TokenBucket& bucket = buckets_[c.peer];
    if (bucket.last_refill == 0.0) {
      bucket.tokens = options_.rate_limit_burst;
    } else {
      bucket.tokens =
          std::min(options_.rate_limit_burst,
                   bucket.tokens +
                       (now - bucket.last_refill) * options_.rate_limit_rps);
    }
    bucket.last_refill = now;
    if (bucket.tokens < 1.0) {
      if (rate_limited_ != nullptr) rate_limited_->inc();
      HttpResponse r = HttpResponse::json(
          429, "{\"error\":\"rate limited\",\"reason\":\"rate_limited\"}");
      r.headers["Retry-After"] = retry_after_value(options_.retry_after_s);
      return r;
    }
    bucket.tokens -= 1.0;
  }

  const char* shed_reason = nullptr;
  if (options_.admission_inflight_watermark > 0 &&
      inflight_ >= options_.admission_inflight_watermark)
    shed_reason = "inflight_watermark";
  else if (options_.admission_latency_watermark_us > 0.0 &&
           latency_ewma_us_ > options_.admission_latency_watermark_us)
    shed_reason = "latency_watermark";
  if (shed_reason != nullptr) {
    if (shed_ != nullptr) shed_->inc();
    HttpResponse r = HttpResponse::json(
        503, std::string("{\"error\":\"overloaded\",\"reason\":\"") +
                 shed_reason + "\"}");
    r.headers["Retry-After"] = retry_after_value(options_.retry_after_s);
    return r;
  }

  if (options_.request_deadline_s > 0.0) {
    double budget_s = options_.request_deadline_s;
    const auto requested = request.headers.find("X-Deadline-Ms");
    if (requested != request.headers.end()) {
      const double ms = std::atof(requested->second.c_str());
      if (ms > 0.0) budget_s = std::min(budget_s, ms / 1000.0);
    }
    if (now - c.request_start > budget_s) {
      if (deadline_exceeded_ != nullptr) deadline_exceeded_->inc();
      HttpResponse r = HttpResponse::json(
          504,
          "{\"error\":\"deadline exceeded before the request completed\","
          "\"reason\":\"deadline_exceeded\"}");
      return r;
    }
  }
  return std::nullopt;
}

void HttpServer::connection_ready(Connection& c, std::uint32_t events) {
  const int fd = c.fd;
  c.last_activity = monotonic_s();

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_connection(fd);
    return;
  }

  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    char buf[16 * 1024];
    for (;;) {
      // A fresh read on a quiescent parser starts a new request's
      // deadline clock.
      if (!c.parser.mid_request()) c.request_start = c.last_activity;
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        if (!c.parser.feed(std::string_view(buf, static_cast<size_t>(n)))) {
          if (parse_errors_ != nullptr) parse_errors_->inc();
          const int status = status_for(c.parser.error());
          HttpResponse bad = HttpResponse::text(
              status, std::string("bad request: ") +
                          to_string(c.parser.error()) + "\n");
          count_response_status(status);
          c.out += serialize(bad, /*keep_alive=*/false);
          ++c.buffered_responses;
          add_inflight(1);
          c.close_after_write = true;
          break;
        }
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) {  // orderly remote close
        close_connection(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(fd);
      return;
    }

    while (auto req = c.parser.take_request()) {
      if (requests_ != nullptr) requests_->inc();
      const double now = monotonic_s();
      HttpResponse response;
      double handler_us = 0.0;
      if (auto rejection = admit(*req, c, now)) {
        response = std::move(*rejection);
      } else {
        const auto t0 = std::chrono::steady_clock::now();
        try {
          response = handler_(*req);
        } catch (const std::exception& e) {
          response = HttpResponse::text(
              500, std::string("internal error: ") + e.what() + "\n");
        } catch (...) {
          response = HttpResponse::text(500, "internal error\n");
        }
        handler_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        if (handler_us_ != nullptr) handler_us_->record(handler_us);
      }
      // A request admit() turned away (503, 429, 504) feeds 0, not its
      // own cost: shedding is what lets the signal decay back under the
      // watermark, even when the shed path alone costs more than it.
      latency_ewma_us_ += kLatencyAlpha * (handler_us - latency_ewma_us_);
      if (latency_ewma_gauge_ != nullptr)
        latency_ewma_gauge_->set(latency_ewma_us_);
      count_response_status(response.status);
      const bool keep = req->keep_alive && !c.close_after_write;
      c.out += serialize(response, keep);
      ++c.buffered_responses;
      add_inflight(1);
      // The next pipelined request's clock starts no earlier than now.
      c.request_start = now;
      if (!keep) {
        c.close_after_write = true;
        break;
      }
    }
  }

  if (!drain_output(c)) return;  // connection closed
  update_epoll(c);
}

/// Returns false when the connection was closed (write error, or all
/// output flushed on a close_after_write connection).
bool HttpServer::drain_output(Connection& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      c.last_activity = monotonic_s();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c.want_write = true;
      return true;  // EPOLLOUT will resume the drain
    }
    close_connection(c.fd);
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  c.want_write = false;
  sub_inflight(c.buffered_responses);
  c.buffered_responses = 0;
  if (c.close_after_write) {
    close_connection(c.fd);
    return false;
  }
  return true;
}

void HttpServer::update_epoll(Connection& c) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (c.want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void HttpServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it != connections_.end())
    sub_inflight(it->second->buffered_responses);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);
  open_.store(connections_.size(), std::memory_order_relaxed);
  if (open_gauge_ != nullptr)
    open_gauge_->set(static_cast<double>(connections_.size()));
}

void HttpServer::sweep_idle(double now) {
  enum class Action { reap_idle, timeout_408, close_write_stall };
  std::vector<std::pair<int, Action>> actions;
  const double stall = options_.stall_timeout_s;
  for (const auto& [fd, c] : connections_) {
    const double quiet = now - c->last_activity;
    if (c->out_pos < c->out.size()) {
      // A buffered response the client is not draining: no 408 can
      // reach it, so the only defense is the close.
      if (stall > 0.0 && quiet > stall)
        actions.emplace_back(fd, Action::close_write_stall);
      continue;
    }
    if (c->parser.mid_request()) {
      // Half a request on the wire. Stalled (no bytes for a while) or
      // trickling past the whole deadline budget both earn a 408 —
      // unlike keep-alive idlers, the client is mid-conversation and
      // deserves to hear why the connection died.
      const bool stalled = stall > 0.0 && quiet > stall;
      const bool over_deadline =
          options_.request_deadline_s > 0.0 &&
          now - c->request_start > options_.request_deadline_s;
      if (stalled || over_deadline)
        actions.emplace_back(fd, Action::timeout_408);
      continue;
    }
    if (quiet > options_.idle_timeout_s)
      actions.emplace_back(fd, Action::reap_idle);
  }
  for (const auto& [fd, action] : actions) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& c = *it->second;
    switch (action) {
      case Action::reap_idle:
        if (idle_reaped_ != nullptr) idle_reaped_->inc();
        close_connection(fd);
        break;
      case Action::close_write_stall:
        if (write_stalls_ != nullptr) write_stalls_->inc();
        close_connection(fd);
        break;
      case Action::timeout_408: {
        if (timeouts_408_ != nullptr) timeouts_408_->inc();
        count_response_status(408);
        c.out += serialize(
            HttpResponse::text(408, "request timeout: no progress\n"),
            /*keep_alive=*/false);
        ++c.buffered_responses;
        add_inflight(1);
        c.close_after_write = true;
        if (drain_output(c)) update_epoll(c);
        break;
      }
    }
  }

  // Token buckets for peers that went quiet are dropped.
  if (options_.rate_limit_rps > 0.0 && now - last_bucket_gc_ > 60.0) {
    for (auto it = buckets_.begin(); it != buckets_.end();)
      it = now - it->second.last_refill > 60.0 ? buckets_.erase(it)
                                               : std::next(it);
    last_bucket_gc_ = now;
  }
}

}  // namespace wiloc::net
