// Dependency-free epoll HTTP/1.1 server.
//
// One acceptor + event-loop thread multiplexes every connection with
// edge-level readiness (level-triggered epoll keeps the state machine
// simple and is plenty at our connection counts): nonblocking accept,
// per-connection RequestParser, handler dispatch, buffered writes with
// EPOLLOUT re-arm when the socket back-pressures, keep-alive, idle
// sweeping. The handler runs on the loop thread —
// WiLocatorService relies on that: the loop thread IS the
// WiLocatorServer control thread, so queries and publishes need no
// extra synchronization beyond the service mutex shared with the
// checkpointer.
//
// With one loop per server, admission (watermarks, latency EWMA,
// per-peer token buckets, max_connections) is exact server-wide state.
// A handler object reached through several HttpServers must still be
// thread-safe; WiLocatorService and ClusterRouter are.
//
// Overload & network-fault policy (DESIGN.md §12): every request gets a
// deadline budget (client-requested via X-Deadline-Ms, capped server
// side); a request whose bytes took longer than its budget to arrive is
// answered 504 without running the handler. Clients that stall
// mid-request get 408 + close (distinct from keep-alive idlers, which
// are reaped silently); clients that stop draining their response get
// closed. When measured handler latency or buffered-response count
// crosses the configured watermarks the server sheds load with
// 503 + Retry-After before doing any work, and a per-peer token bucket
// answers 429 to peers exceeding their rate. All of it is accounted in
// http.* metrics so a load driver can reconcile what it saw against
// what the server did.
//
// An eventfd doubles as the shutdown doorbell so stop() never waits out
// an epoll timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "util/obs.hpp"

namespace wiloc::net {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see HttpServer::port()
  int backlog = 128;
  std::size_t max_connections = 1024;
  double idle_timeout_s = 60.0;  ///< idle keep-alive connections are reaped
  RequestParser::Limits limits;

  /// Mid-request progress timeout: a connection that has received part
  /// of a request but made no read progress for this long is answered
  /// 408 and closed; a connection that stops draining a buffered
  /// response for this long is closed. 0 disables (idle_timeout_s then
  /// covers both, silently).
  double stall_timeout_s = 10.0;
  /// Server-side cap on the per-request deadline budget. A client may
  /// ask for less via an `X-Deadline-Ms` header, never for more. The
  /// budget runs from the request's first byte; when it is already
  /// exhausted once the request is complete, the handler is skipped and
  /// the client gets 504. 0 disables deadlines.
  double request_deadline_s = 0.0;
  /// Admission control, watermark 1: shed with 503 when this many
  /// responses are buffered to clients that have not drained them yet
  /// (slow readers holding server memory). 0 disables.
  std::size_t admission_inflight_watermark = 0;
  /// Admission control, watermark 2: shed with 503 while the EWMA of
  /// handler latency exceeds this (µs). Every request admission turns
  /// away (503, 429, 504) feeds 0 into the EWMA, so shedding itself
  /// releases the brake — the server converges on admitting the
  /// fraction of load it can actually serve. 0 disables.
  double admission_latency_watermark_us = 0.0;
  /// Retry-After value (seconds, rounded up) on 503/429 responses.
  double retry_after_s = 1.0;
  /// Per-peer token bucket: sustained requests/second allowed per peer
  /// address before 429. 0 disables rate limiting.
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 32.0;
  /// Paths exempt from shedding, rate limiting and deadlines — health
  /// probes, scrapes and peer replication must work precisely when the
  /// server is sick.
  std::vector<std::string> control_paths = {"/healthz", "/readyz", "/metrics",
                                            "/v1/replication/segments"};

  /// Optional: http.* counters/histograms land here (requests,
  /// connections, handler latency, slow-client buffered bytes).
  obs::Registry* registry = nullptr;
};

/// Handler invoked on the event-loop thread for every complete request.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer(HttpHandler handler, HttpServerOptions options = {});
  /// stop()s if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the event-loop thread. Throws
  /// wiloc::Error when the socket cannot be bound.
  void start();

  /// Signals the loop, joins the thread and closes every connection.
  /// Idempotent; never throws.
  void stop() noexcept;

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves an ephemeral request after start()).
  std::uint16_t port() const { return port_; }

  /// Connections currently open (loop-thread maintained).
  std::size_t open_connections() const {
    return open_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint32_t peer = 0;  ///< IPv4 peer address (rate-limit key)
    RequestParser parser;
    std::string out;          ///< bytes not yet accepted by the kernel
    std::size_t out_pos = 0;  ///< write cursor into `out`
    std::size_t buffered_responses = 0;  ///< responses not fully drained
    bool close_after_write = false;
    bool want_write = false;  ///< EPOLLOUT armed
    double last_activity = 0.0;
    double request_start = 0.0;  ///< first byte of the in-flight request

    explicit Connection(RequestParser::Limits limits) : parser(limits) {}
  };

  struct TokenBucket {
    double tokens = 0.0;
    double last_refill = 0.0;
  };

  void loop();
  void accept_ready();
  void connection_ready(Connection& c, std::uint32_t events);
  /// Admission pipeline: rate limit, shed watermarks, deadline. Returns
  /// the short-circuit response, or nullopt when the request is
  /// admitted to the handler.
  std::optional<HttpResponse> admit(const HttpRequest& request,
                                    const Connection& c, double now);
  void count_response_status(int status);
  bool drain_output(Connection& c);
  void close_connection(int fd);
  void sweep_idle(double now);
  void update_epoll(Connection& c);
  void add_inflight(std::size_t n);
  void sub_inflight(std::size_t n);
  double monotonic_s() const;

  HttpHandler handler_;
  HttpServerOptions options_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> open_{0};  ///< mirrors connections_.size()

  // Loop state: touched only by the loop thread, or by start()/stop()
  // while that thread is not running.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::size_t inflight_ = 0;      ///< responses buffered, not yet drained
  double latency_ewma_us_ = 0.0;  ///< admission EWMA, µs
  std::unordered_map<std::uint32_t, TokenBucket> buckets_;
  double last_bucket_gc_ = 0.0;

  // http.* metrics (null when no registry was supplied).
  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_4xx_ = nullptr;
  obs::Counter* responses_5xx_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_overload_ = nullptr;
  obs::Counter* parse_errors_ = nullptr;
  obs::Counter* idle_reaped_ = nullptr;
  obs::Counter* shed_ = nullptr;               ///< http.shed
  obs::Counter* deadline_exceeded_ = nullptr;  ///< http.deadline_exceeded
  obs::Counter* rate_limited_ = nullptr;       ///< http.rate_limited
  obs::Counter* timeouts_408_ = nullptr;       ///< http.timeouts_408
  obs::Counter* write_stalls_ = nullptr;       ///< http.write_stalls_closed
  obs::Gauge* open_gauge_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;       ///< http.inflight_responses
  obs::Gauge* latency_ewma_gauge_ = nullptr;   ///< http.latency_ewma_us
  obs::HistogramMetric* handler_us_ = nullptr;

  std::thread thread_;  ///< the event loop; declared after all it uses
};

}  // namespace wiloc::net
