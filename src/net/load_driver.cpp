#include "net/load_driver.hpp"

#include <chrono>
#include <thread>

#include "net/http_client.hpp"
#include "util/contracts.hpp"
#include "util/json_num.hpp"

namespace wiloc::net {

namespace {

/// Buckets an answer into the report's fault-class ledger.
void classify(LoadReport& r, int status) {
  switch (status) {
    case 200:
      ++r.good_responses;
      return;
    case 503:
      ++r.shed_503;
      break;
    case 429:
      ++r.rate_limited_429;
      break;
    case 504:
      ++r.deadline_504;
      break;
    case 408:
      ++r.timeouts_408;
      break;
    default:
      break;
  }
  ++r.errors;
}

}  // namespace

HttpLoadDriver::HttpLoadDriver(LoadDriverOptions options)
    : options_(std::move(options)) {
  WILOC_EXPECTS(options_.connections >= 1);
  WILOC_EXPECTS(options_.batch_size >= 1);
}

LoadReport HttpLoadDriver::run(std::span<const core::ScanSubmission> stream,
                               std::vector<ArrivalProbe> probes) {
  // Shard by trip so one connection owns a trip's whole scan sequence
  // (per-trip order is an ingest invariant; cross-trip order is not).
  // Each connection's batches, pre-encoded.
  std::vector<std::vector<std::string>> plans(options_.connections);
  {
    std::vector<std::vector<core::ScanSubmission>> pending(
        options_.connections);
    for (const core::ScanSubmission& sub : stream) {
      const std::size_t conn = sub.trip.value() % options_.connections;
      pending[conn].push_back(sub);
      if (pending[conn].size() >= options_.batch_size) {
        plans[conn].push_back(encode_scan_batch(pending[conn]));
        pending[conn].clear();
      }
    }
    for (std::size_t conn = 0; conn < options_.connections; ++conn)
      if (!pending[conn].empty())
        plans[conn].push_back(encode_scan_batch(pending[conn]));
  }

  std::vector<LoadReport> results(options_.connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(options_.connections);
  for (std::size_t conn = 0; conn < options_.connections; ++conn) {
    workers.emplace_back([this, conn, &plans, &results, &probes] {
      const std::vector<std::string>& plan = plans[conn];
      LoadReport& r = results[conn];
      HttpClientOptions copts = options_.client;
      copts.jitter_seed += conn;  // decorrelate per-connection backoff
      HttpClient client(options_.host, options_.port, copts);
      std::size_t probe_i = conn;  // stagger probe rotation per conn
      for (std::size_t b = 0; b < plan.size(); ++b) {
        ++r.batches;
        // A faulted request costs that request, not the rest of the
        // connection's run — the client reconnects on the next one.
        try {
          classify(r, client.post("/v1/scans", plan[b]).status);
        } catch (const std::exception&) {
          ++r.errors;
          ++r.transport_errors;
        }
        if (options_.arrival_every == 0 || probes.empty() ||
            (b + 1) % options_.arrival_every != 0)
          continue;
        const ArrivalProbe& probe = probes[probe_i++ % probes.size()];
        std::string target = "/v1/arrival?trip=";
        target += std::to_string(probe.trip.value());
        target += "&stop=" + std::to_string(probe.stop);
        target += "&now=" + json_num(probe.now);
        ++r.arrival_queries;
        try {
          const int status = client.get(target).status;
          // 404 is a probe miss (no fix yet), not an error.
          classify(r, status == 404 ? 200 : status);
        } catch (const std::exception&) {
          ++r.errors;
          ++r.transport_errors;
        }
      }
      r.retries = client.retries();
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  LoadReport report;
  for (const LoadReport& r : results) {
    report.batches += r.batches;
    report.arrival_queries += r.arrival_queries;
    report.errors += r.errors;
    report.shed_503 += r.shed_503;
    report.rate_limited_429 += r.rate_limited_429;
    report.deadline_504 += r.deadline_504;
    report.timeouts_408 += r.timeouts_408;
    report.transport_errors += r.transport_errors;
    report.retries += r.retries;
    report.good_responses += r.good_responses;
  }
  report.goodput_rps =
      wall_s > 0.0 ? static_cast<double>(report.good_responses) / wall_s : 0.0;
  return report;
}

}  // namespace wiloc::net
