// ClusterRouter: the thin consistent-hash trip->node HTTP front door.
//
// Clients talk to the router exactly as they would to a single
// wilocator_serve; the router owns placement and failover:
//
//   - trip-scoped requests (scans, position, trip arrival, trip
//     registration) go to the trip's rendezvous-hash owner, falling
//     over to the next node in that trip's own ranking when the owner
//     is unhealthy or the forward fails (retry-on-next-replica);
//   - POST /v1/scans batches are split by owner node, forwarded
//     per-node, and the per-node acks merged — the router acks a scan
//     only after some node did (zero acknowledged-and-lost scans);
//   - route-scoped arrival queries scatter to every healthy node (a
//     route's trips may be sharded across nodes) and return the
//     earliest predicted arrival; /v1/traffic-map goes to the first
//     healthy node in the query's ranking;
//   - trip registrations are cached (trip -> route) so the router can
//     lazily re-register a trip on its failover target before sending
//     scans there — a 409 "trip already active" counts as success,
//     which is what makes re-registration idempotent.
//
// Health: a background probe thread GETs every node's /healthz each
// probe interval; `probe_failures` consecutive failures mark the node
// down (proxy-path failures count too, so a dead node is usually
// detected by the very request that hit it). A downed node's trips
// fail over to the ring's next replica, which serves from its
// replicated state — degraded until the replication tailer has caught
// up, converged after.
//
// Deliberately thin: the proxy is a blocking HttpClient call on the
// serving thread (one upstream round-trip per request, no pipelining) —
// at WiLocator's fleet sizes the upstream handler, not the router hop,
// is the budget. handle() is still thread-safe, so in-process callers
// may use it beside the serving thread: upstream connections live in
// per-node checkout pools (one idle connection kept per node), the
// trip->route placement cache sits behind a mutex held only around map
// operations, and Membership/ack counters are atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/ring.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "util/obs.hpp"

namespace wiloc::cluster {

struct RouterOptions {
  net::HttpServerOptions http;
  double probe_interval_s = 0.25;
  /// Consecutive failures (probe or proxy) that mark a node down.
  int probe_failures = 2;
  net::HttpClientOptions client;  ///< upstream timeouts (proxy + probes)
};

class ClusterRouter {
 public:
  explicit ClusterRouter(std::vector<NodeInfo> nodes,
                         RouterOptions options = {});
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Binds the HTTP server and starts the probe thread.
  void start();
  /// Stops probing and serving. Idempotent; never throws.
  void stop() noexcept;

  std::uint16_t port() const {
    return http_ != nullptr ? http_->port() : 0;
  }
  bool running() const { return http_ != nullptr && http_->running(); }

  /// Routes one request (also the in-process test entry point).
  /// Thread-safe: callable concurrently with the serving thread.
  net::HttpResponse handle(const net::HttpRequest& request);

  const Membership& membership() const { return membership_; }
  const HashRing& ring() const { return ring_; }
  obs::Registry& metrics_registry() { return registry_; }

  /// Scans acknowledged (200 to the client) per node index — the
  /// ledger chaos tests reconcile against node-side service.scans_posted.
  std::vector<std::uint64_t> acked_scans_by_node() const;

 private:
  net::HttpResponse handle_scans(const net::HttpRequest& request);
  net::HttpResponse handle_trips(const net::HttpRequest& request);
  net::HttpResponse handle_trip_read(const net::HttpRequest& request);
  net::HttpResponse handle_route_arrival(const net::HttpRequest& request);
  net::HttpResponse handle_any_node(const net::HttpRequest& request);
  net::HttpResponse handle_readyz();
  net::HttpResponse handle_metrics(const net::HttpRequest& request);

  /// Forwards `request` to the first node of `order` that is healthy
  /// and answers; transport failures mark the node and move on. 503/429
  /// answers also try the next replica (another node may have capacity).
  /// Exhausting the ladder yields 503 + Retry-After.
  net::HttpResponse forward_ladder(const std::vector<std::size_t>& order,
                                   const net::HttpRequest& request,
                                   bool idempotent,
                                   std::uint64_t trip_key,
                                   bool has_trip_key,
                                   std::size_t* served_by = nullptr);

  /// One upstream round-trip (GET when `body` is empty, POST
  /// otherwise). Throws wiloc::Error on transport failure.
  net::ClientResponse forward_to(std::size_t node, const std::string& target,
                                 const std::optional<std::string>& body,
                                 bool idempotent);

  /// Ensures `trip` is registered on `node` (lazy failover
  /// re-registration; 409 counts as registered). Returns false when the
  /// node could not be reached or refused.
  bool ensure_registered(std::size_t node, std::uint64_t trip);

  void probe_loop();
  /// Pops an idle upstream client for `node` (or connects a fresh one).
  /// Pair with checkin_client so the connection is reused; dropping the
  /// pointer instead just closes the connection.
  std::unique_ptr<net::HttpClient> checkout_client(std::size_t node);
  void checkin_client(std::size_t node,
                      std::unique_ptr<net::HttpClient> client);

  std::vector<NodeInfo> nodes_;
  RouterOptions options_;
  Membership membership_;
  HashRing ring_;
  obs::Registry registry_;
  std::unique_ptr<net::HttpServer> http_;

  /// Per-node pool holding at most one idle upstream connection. An
  /// HttpClient owns one connection and is not shareable, so callers
  /// check it out for the duration of a round trip and return it after.
  struct NodePool {
    std::mutex mu;
    std::unique_ptr<net::HttpClient> idle;
  };
  std::vector<std::unique_ptr<NodePool>> client_pools_;

  /// Guards the placement cache below; held only around map lookups and
  /// mutations, never across an upstream round trip.
  mutable std::mutex routes_mu_;
  /// trip -> route learned from registrations.
  std::unordered_map<std::uint64_t, std::uint64_t> trip_routes_;
  /// Nodes each trip is known registered on.
  std::unordered_map<std::uint64_t, std::unordered_set<std::size_t>>
      trip_registered_;

  /// Scans acked to clients, attributed to the node that acked them.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> acked_scans_;

  std::thread prober_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  // router.* metric handles.
  obs::Counter* m_proxied_ = nullptr;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_upstream_errors_ = nullptr;
  obs::Counter* m_no_replica_ = nullptr;
  obs::Counter* m_probe_failures_ = nullptr;
  obs::Counter* m_reregistrations_ = nullptr;
  obs::Gauge* m_healthy_nodes_ = nullptr;
};

}  // namespace wiloc::cluster
