// Overload and fault-path tests of the epoll HTTP server: admission
// shedding, per-peer rate limiting, request deadlines, the 408
// mid-request stall path (vs silent keep-alive reaping), and parser
// limits driven over real sockets with raw split/truncated writes.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "net/http_client.hpp"
#include "net/http_server.hpp"

namespace wiloc::net {
namespace {

using namespace std::chrono_literals;

HttpServerOptions base_options(obs::Registry* registry) {
  HttpServerOptions o;
  o.port = 0;
  o.registry = registry;
  return o;
}

HttpResponse ok_handler(const HttpRequest&) {
  return HttpResponse::text(200, "ok");
}

/// A raw loopback socket for byte-level protocol poking.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    timeval tv{5, 0};
    if (fd_ >= 0) ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// send() that tolerates a peer that already closed (returns false).
  bool try_send(const std::string& bytes) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    return n == static_cast<ssize_t>(bytes.size());
  }

  /// True once response bytes are waiting to be read.
  bool readable() const {
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
  }

  /// Reads until the peer closes (or the 5 s rcv timeout trips).
  std::string read_to_eof() {
    std::string data;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      data.append(buf, static_cast<std::size_t>(n));
    }
    return data;
  }

 private:
  int fd_ = -1;
};

// Satellite: a client stalled mid-request gets an explicit 408 and a
// close; an idle keep-alive connection between requests is reaped
// silently. The two must not be conflated.
TEST(HttpRobustness, MidRequestStallGets408IdleReapStaysSilent) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.stall_timeout_s = 0.15;
  options.idle_timeout_s = 0.4;
  HttpServer server(ok_handler, options);
  server.start();

  {
    // Half a request, then silence: 408 with the stall reason.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    conn.send_all("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\npart");
    const std::string reply = conn.read_to_eof();
    EXPECT_NE(reply.find("408"), std::string::npos) << reply;
    EXPECT_NE(reply.find("no progress"), std::string::npos) << reply;
  }
  EXPECT_EQ(registry.snapshot().counter("http.timeouts_408"), 1u);

  {
    // A complete exchange, then idling past idle_timeout_s: the reap is
    // a bare close, no 408 bytes.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    conn.send_all("GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    const std::string reply = conn.read_to_eof();  // response, then reap EOF
    EXPECT_NE(reply.find("200"), std::string::npos);
    EXPECT_EQ(reply.find("408"), std::string::npos);
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("http.timeouts_408"), 1u);
  EXPECT_GE(snap.counter("http.connections_idle_reaped"), 1u);
  server.stop();
}

TEST(HttpRobustness, TrickledRequestPastDeadlineGets408) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.stall_timeout_s = 10.0;       // never stalls between bytes
  options.request_deadline_s = 0.3;     // but the budget still expires
  HttpServer server(ok_handler, options);
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  const std::string wire = "POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
  // Keep making byte progress so only the deadline can trip; stop the
  // trickle the moment the server answers (more sends would RST away
  // the buffered 408).
  const auto t_end = std::chrono::steady_clock::now() + 800ms;
  std::size_t i = 0;
  while (std::chrono::steady_clock::now() < t_end && i < wire.size() &&
         !conn.readable()) {
    if (!conn.try_send(std::string(1, wire[i++]))) break;
    std::this_thread::sleep_for(20ms);
  }
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("408"), std::string::npos) << reply;
  EXPECT_GE(registry.snapshot().counter("http.timeouts_408"), 1u);
  server.stop();
}

TEST(HttpRobustness, DeadlineExhaustedAtDispatchGets504) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.request_deadline_s = 10.0;  // server cap; client asks for less
  HttpServer server(ok_handler, options);
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  // Start the request, ask for a 50 ms budget, finish it after 300 ms:
  // complete, but too late — the handler must be skipped.
  conn.send_all(
      "POST /x HTTP/1.1\r\nX-Deadline-Ms: 50\r\nContent-Length: 4\r\n\r\n");
  std::this_thread::sleep_for(300ms);
  conn.send_all("late");
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("504"), std::string::npos) << reply;
  EXPECT_NE(reply.find("deadline_exceeded"), std::string::npos) << reply;
  EXPECT_EQ(registry.snapshot().counter("http.deadline_exceeded"), 1u);
  server.stop();
}

// Satellite: every shed carries Retry-After and a machine-readable
// reason, and shedding releases itself once the EWMA decays.
TEST(HttpRobustness, LatencyWatermarkShedsWithRetryAfterThenRecovers) {
  // 2000 µs sits far above the shed path's cost. 0.01 µs sits below it:
  // the brake still has to come off, because a shed feeds 0 into the
  // EWMA rather than its own cost. From the 3,000 µs one 30 ms request
  // leaves, that takes ~120 sheds, inside the 200-request budget.
  for (const double watermark_us : {2000.0, 0.01}) {
    SCOPED_TRACE("watermark_us=" + std::to_string(watermark_us));
    obs::Registry registry;
    HttpServerOptions options = base_options(&registry);
    options.admission_latency_watermark_us = watermark_us;
    options.retry_after_s = 1.0;
    HttpServer server(
        [](const HttpRequest& req) {
          if (req.path == "/slow") std::this_thread::sleep_for(30ms);
          return HttpResponse::text(200, "ok");
        },
        options);
    server.start();

    HttpClient client("127.0.0.1", server.port());
    // Drive the EWMA over the watermark with slow requests.
    int shed = 0;
    ClientResponse last_shed;
    for (int i = 0; i < 30 && shed == 0; ++i) {
      const auto resp = client.get("/slow");
      if (resp.status == 503) {
        ++shed;
        last_shed = resp;
      }
    }
    ASSERT_GT(shed, 0) << "watermark never tripped";
    EXPECT_EQ(last_shed.headers.at("Retry-After"), "1");
    EXPECT_NE(last_shed.body.find("\"reason\":\"latency_watermark\""),
              std::string::npos)
        << last_shed.body;

    // Keep knocking: the brake must come off without any cool-down
    // sleep.
    int recovered = 0;
    for (int i = 0; i < 200 && recovered == 0; ++i)
      if (client.get("/fast").status == 200) ++recovered;
    EXPECT_GT(recovered, 0) << "shedding never released";

    EXPECT_GE(registry.snapshot().counter("http.shed"), 1u);
    server.stop();
  }
}

TEST(HttpRobustness, ControlPathsExemptFromAdmission) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  // Watermark of 0.1 µs: every non-control request sheds after the
  // first one seeds the EWMA. /work sleeps 1 ms so that seed lands far
  // over the watermark however fast the machine; a bare "ok" handler
  // can finish in well under the 1 µs the EWMA's 0.1 weight needs.
  options.admission_latency_watermark_us = 0.1;
  HttpServer server(
      [](const HttpRequest& req) {
        if (req.path == "/work") std::this_thread::sleep_for(1ms);
        return HttpResponse::text(200, "ok");
      },
      options);
  server.start();

  HttpClient client("127.0.0.1", server.port());
  (void)client.get("/work");  // seeds the EWMA
  int shed = 0;
  for (int i = 0; i < 10; ++i)
    if (client.get("/work").status == 503) ++shed;
  EXPECT_GT(shed, 0);
  // Health probes must keep answering 200 while the server sheds.
  EXPECT_EQ(client.get("/healthz").status, 200);
  EXPECT_EQ(client.get("/metrics").status, 200);
  server.stop();
}

TEST(HttpRobustness, PerPeerRateLimit429WithRetryAfter) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.rate_limit_rps = 5.0;
  options.rate_limit_burst = 3.0;
  options.retry_after_s = 2.0;
  HttpServer server(ok_handler, options);
  server.start();

  HttpClient client("127.0.0.1", server.port());
  int ok = 0;
  int limited = 0;
  ClientResponse last_429;
  for (int i = 0; i < 10; ++i) {
    const auto resp = client.get("/x");
    if (resp.status == 200) ++ok;
    if (resp.status == 429) {
      ++limited;
      last_429 = resp;
    }
  }
  EXPECT_EQ(ok, 3);  // exactly the burst allowance in a tight loop
  EXPECT_GT(limited, 0);
  EXPECT_EQ(last_429.headers.at("Retry-After"), "2");
  EXPECT_NE(last_429.body.find("\"reason\":\"rate_limited\""),
            std::string::npos);
  EXPECT_GE(registry.snapshot().counter("http.rate_limited"),
            static_cast<std::uint64_t>(limited));

  // Waiting refills the bucket.
  std::this_thread::sleep_for(500ms);
  EXPECT_EQ(client.get("/x").status, 200);
  server.stop();
}

// Satellite: parser limits over real sockets — oversized bodies map to
// 413 and oversized headers to 431, including when the bytes arrive
// split across many writes.
TEST(HttpRobustness, OversizedBodyOverSocketIs413) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.limits.max_body_bytes = 64;
  HttpServer server(ok_handler, options);
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  conn.send_all("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n");
  conn.send_all(std::string(100, 'b'));
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("413"), std::string::npos) << reply;
  EXPECT_GE(registry.snapshot().counter("http.parse_errors"), 1u);
  server.stop();
}

TEST(HttpRobustness, OversizedHeadersSplitByteByByteIs431) {
  obs::Registry registry;
  HttpServerOptions options = base_options(&registry);
  options.limits.max_header_bytes = 128;
  options.stall_timeout_s = 5.0;
  HttpServer server(ok_handler, options);
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  const std::string wire = "GET /x HTTP/1.1\r\nX-Big: " +
                           std::string(300, 'h') + "\r\n\r\n";
  // Byte-at-a-time delivery must hit the limit exactly like one write.
  // Stop as soon as the server answers: it closes after the 431, and
  // pressing on would draw an RST that discards the buffered reply.
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    if (conn.readable() || !conn.try_send(wire.substr(i, 7))) break;
  }
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("431"), std::string::npos) << reply;
  server.stop();
}

TEST(HttpRobustness, PipelinedRequestsEachGetAResponse) {
  HttpServer server(
      [](const HttpRequest& req) {
        return HttpResponse::text(200, "path:" + req.path);
      },
      base_options(nullptr));
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  // Two complete requests in a single write; Connection: close on the
  // second bounds read_to_eof.
  conn.send_all(
      "GET /a HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
      "GET /b HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("path:/a"), std::string::npos) << reply;
  EXPECT_NE(reply.find("path:/b"), std::string::npos) << reply;
  server.stop();
}

TEST(HttpRobustness, ByteAtATimeRequestParsesClean) {
  HttpServer server(
      [](const HttpRequest& req) {
        return HttpResponse::text(200, "got:" + req.body);
      },
      base_options(nullptr));
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  const std::string wire =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\n"
      "hello";
  for (char ch : wire) conn.send_all(std::string(1, ch));
  const std::string reply = conn.read_to_eof();
  EXPECT_NE(reply.find("200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("got:hello"), std::string::npos) << reply;
  server.stop();
}

}  // namespace
}  // namespace wiloc::net
