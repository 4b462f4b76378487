// wilocator_serve: the WiLocator serving binary.
//
// Builds the paper's corridor city, trains the server on simulated
// history days (standing in for the transit agency's archive), then
// serves the HTTP API until SIGINT/SIGTERM. With --persist-dir the
// server journals learned state and the service's background thread
// checkpoints it off the serving path — kill -9 the process and restart
// it on the same directory to watch recovery replay (the e2e test does
// exactly that).
//
// Prints "LISTENING <port>" on stdout once ready; harnesses parse it.
//
// Usage: wilocator_serve [options]
//   --port N               bind port (default 0 = ephemeral)
//   --persist-dir PATH     enable durable state under PATH
//   --history-days N       training days before serving (default 3)
//   --workers N            ingest worker threads (default 2)
//   --snapshot-interval S  sim-seconds between checkpoints (default 900)
//   --checkpoint-poll S    wall-seconds between due-checks (default 0.25)
//   --no-train             skip history (serve cold; predictions 404)
//   --metrics-period S     NDJSON metrics cadence to stderr (default 60)
//   --request-deadline S   per-request budget; 0 disables (default 0)
//   --stall-timeout S      mid-request progress timeout => 408 (default 10)
//   --shed-latency-us U    admission EWMA watermark; 0 disables (default 0)
//   --shed-inflight N      admission inflight watermark; 0 disables
//   --rate-limit RPS       per-peer token bucket; 0 disables (default 0)
//   --rate-burst N         token bucket burst size (default 32)
//   --arrival-coalesce S   min wall-seconds between arrival-snapshot
//                          refreshes; 0 = refresh per batch (default 0.02)
//
// Cluster mode (see DESIGN.md §14): give every node the OTHER nodes as
// --peers and it tails their journals into its own store, so predictions
// over shared segments converge cluster-wide.
//   --node-id ID           this node's name in logs/readyz (default "node")
//   --peers LIST           peer nodes to tail, "id=host:port,..." (off
//                          by default; requires the peers to persist)
//   --replication-poll S   wall-seconds between tail passes (default 0.05)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cluster/replication.hpp"
#include "common.hpp"
#include "net/service.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--persist-dir PATH]"
               " [--history-days N]"
               " [--workers N] [--snapshot-interval S]"
               " [--checkpoint-poll S] [--no-train] [--metrics-period S]"
               " [--request-deadline S] [--stall-timeout S]"
               " [--shed-latency-us U] [--shed-inflight N]"
               " [--rate-limit RPS] [--rate-burst N]"
               " [--arrival-coalesce S] [--node-id ID] [--peers LIST]"
               " [--replication-poll S]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wiloc;

  std::uint16_t port = 0;
  std::string persist_dir;
  int history_days = 3;
  std::size_t workers = 2;
  double snapshot_interval_s = 15.0 * 60.0;
  double checkpoint_poll_s = 0.25;
  bool train = true;
  double metrics_period_s = 60.0;
  double request_deadline_s = 0.0;
  double stall_timeout_s = 10.0;
  double shed_latency_us = 0.0;
  std::size_t shed_inflight = 0;
  double rate_limit_rps = 0.0;
  double rate_burst = 32.0;
  double arrival_coalesce_s = 0.02;
  std::string node_id = "node";
  std::string peers_spec;
  double replication_poll_s = 0.05;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0)
      port = static_cast<std::uint16_t>(std::atoi(need("--port")));
    else if (std::strcmp(argv[i], "--persist-dir") == 0)
      persist_dir = need("--persist-dir");
    else if (std::strcmp(argv[i], "--history-days") == 0)
      history_days = std::atoi(need("--history-days"));
    else if (std::strcmp(argv[i], "--workers") == 0)
      workers = static_cast<std::size_t>(std::atoi(need("--workers")));
    else if (std::strcmp(argv[i], "--snapshot-interval") == 0)
      snapshot_interval_s = std::atof(need("--snapshot-interval"));
    else if (std::strcmp(argv[i], "--checkpoint-poll") == 0)
      checkpoint_poll_s = std::atof(need("--checkpoint-poll"));
    else if (std::strcmp(argv[i], "--no-train") == 0)
      train = false;
    else if (std::strcmp(argv[i], "--metrics-period") == 0)
      metrics_period_s = std::atof(need("--metrics-period"));
    else if (std::strcmp(argv[i], "--request-deadline") == 0)
      request_deadline_s = std::atof(need("--request-deadline"));
    else if (std::strcmp(argv[i], "--stall-timeout") == 0)
      stall_timeout_s = std::atof(need("--stall-timeout"));
    else if (std::strcmp(argv[i], "--shed-latency-us") == 0)
      shed_latency_us = std::atof(need("--shed-latency-us"));
    else if (std::strcmp(argv[i], "--shed-inflight") == 0)
      shed_inflight =
          static_cast<std::size_t>(std::atoi(need("--shed-inflight")));
    else if (std::strcmp(argv[i], "--rate-limit") == 0)
      rate_limit_rps = std::atof(need("--rate-limit"));
    else if (std::strcmp(argv[i], "--rate-burst") == 0)
      rate_burst = std::atof(need("--rate-burst"));
    else if (std::strcmp(argv[i], "--arrival-coalesce") == 0)
      arrival_coalesce_s = std::atof(need("--arrival-coalesce"));
    else if (std::strcmp(argv[i], "--node-id") == 0)
      node_id = need("--node-id");
    else if (std::strcmp(argv[i], "--peers") == 0)
      peers_spec = need("--peers");
    else if (std::strcmp(argv[i], "--replication-poll") == 0)
      replication_poll_s = std::atof(need("--replication-poll"));
    else
      usage(argv[0]);
  }

  const sim::City city = sim::build_paper_city();
  const sim::TrafficModel traffic(2016);
  const sim::FleetPlan plan = sim::default_fleet_plan(city);

  core::ServerConfig config;
  config.engine.workers = workers;
  config.engine.queue_capacity = 4096;
  config.arrival.min_refresh_wall_s = arrival_coalesce_s;
  config.persist.dir = persist_dir;
  config.persist.snapshot_interval_s = snapshot_interval_s;
  core::WiLocatorServer server(city.route_pointers(), city.ap_snapshot(),
                               *city.rf_model, DaySlots::paper_five_slots(),
                               config);
  if (server.recovered())
    std::cerr << "recovered learned state from " << persist_dir << "\n";

  double history_s = 0.0;
  if (train && !server.recovered()) {
    Rng rng(7);
    const double history_start = core::wall_clock_s();
    bench::train_server(server, city, traffic, plan, /*first_day=*/0,
                        history_days, rng);
    history_s = core::wall_clock_s() - history_start;
    std::cerr << "trained on " << history_days << " history days\n";
  }
  // Where start-up time went; /metrics also carries server.svd_build_s.
  std::cerr << "start-up: svd build "
            << server.metrics_snapshot().gauge("server.svd_build_s")
            << " s, history load " << history_s << " s\n";

  obs::ReporterOptions reporter_options;
  reporter_options.period_s = metrics_period_s;
  // Reads what /metrics serves (ingest.* included). The service
  // (stopped first) owns the final flush, after its engine drain.
  obs::Reporter reporter([&server] { return server.metrics_snapshot(); },
                         std::cerr, reporter_options);

  net::ServiceOptions options;
  options.http.port = port;
  options.http.request_deadline_s = request_deadline_s;
  options.http.stall_timeout_s = stall_timeout_s;
  options.http.admission_latency_watermark_us = shed_latency_us;
  options.http.admission_inflight_watermark = shed_inflight;
  options.http.rate_limit_rps = rate_limit_rps;
  options.http.rate_limit_burst = rate_burst;
  options.checkpoint_poll_s = checkpoint_poll_s;
  options.reporter = &reporter;
  net::WiLocatorService service(server, options);
  service.start();
  service.set_ready(true);

  std::unique_ptr<cluster::ReplicationTailer> tailer;
  if (!peers_spec.empty()) {
    cluster::ReplicationOptions repl;
    repl.poll_interval_s = replication_poll_s;
    tailer = std::make_unique<cluster::ReplicationTailer>(
        service, cluster::NodeInfo::parse_list(peers_spec), repl,
        &server.metrics_registry());
    tailer->start();
    std::cerr << node_id << ": tailing " << peers_spec << "\n";
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cout << "LISTENING " << service.port() << std::endl;

  while (g_signal.load() == 0 && service.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (const auto now = server.last_event_time(); now.has_value())
      reporter.maybe_report(*now);
  }

  std::cerr << "shutting down (signal " << g_signal.load() << ")\n";
  if (tailer != nullptr) tailer->stop();
  service.stop();
  return 0;
}
