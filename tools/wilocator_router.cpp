// wilocator_router: the cluster front door.
//
// Speaks the same HTTP API as wilocator_serve but owns no model state:
// it shards trips across the given nodes by rendezvous hash, splits
// scan batches by owner, fails trips over to the next replica when a
// node dies, and scatter-gathers route-level arrival queries. Pair it
// with nodes that --peers each other so failover targets hold
// replicated learned state (DESIGN.md §14).
//
// Prints "LISTENING <port>" on stdout once ready; harnesses parse it.
//
// Usage: wilocator_router --nodes LIST [options]
//   --nodes LIST         required: "id=host:port,id=host:port,..."
//   --port N             bind port (default 0 = ephemeral)
//   --probe-interval S   /healthz probe cadence (default 0.25)
//   --probe-failures N   consecutive failures marking a node down
//                        (default 2)
//   --upstream-timeout S connect/read/write timeout per upstream call
//                        (default 2)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/router.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --nodes LIST [--port N] [--probe-interval S]"
               " [--probe-failures N] [--upstream-timeout S]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wiloc;

  std::string nodes_spec;
  std::uint16_t port = 0;
  double probe_interval_s = 0.25;
  int probe_failures = 2;
  double upstream_timeout_s = 2.0;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0)
      nodes_spec = need("--nodes");
    else if (std::strcmp(argv[i], "--port") == 0)
      port = static_cast<std::uint16_t>(std::atoi(need("--port")));
    else if (std::strcmp(argv[i], "--probe-interval") == 0)
      probe_interval_s = std::atof(need("--probe-interval"));
    else if (std::strcmp(argv[i], "--probe-failures") == 0)
      probe_failures = std::atoi(need("--probe-failures"));
    else if (std::strcmp(argv[i], "--upstream-timeout") == 0)
      upstream_timeout_s = std::atof(need("--upstream-timeout"));
    else
      usage(argv[0]);
  }
  if (nodes_spec.empty()) {
    std::cerr << "--nodes is required\n";
    usage(argv[0]);
  }

  cluster::RouterOptions options;
  options.http.port = port;
  options.probe_interval_s = probe_interval_s;
  options.probe_failures = probe_failures;
  options.client.connect_timeout_s = upstream_timeout_s;
  options.client.read_timeout_s = upstream_timeout_s;
  options.client.write_timeout_s = upstream_timeout_s;

  cluster::ClusterRouter router(cluster::NodeInfo::parse_list(nodes_spec),
                                options);
  router.start();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cout << "LISTENING " << router.port() << std::endl;

  while (g_signal.load() == 0 && router.running())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::cerr << "router shutting down (signal " << g_signal.load() << ")\n";
  router.stop();
  return 0;
}
