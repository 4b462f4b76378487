#include "net/load_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/arrival_table.hpp"
#include "net/http_client.hpp"
#include "util/contracts.hpp"

namespace wiloc::net {

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[i];
}

/// The per-connection batch plan: pre-encoded bodies + scan counts.
struct ConnPlan {
  std::vector<std::string> bodies;
  std::vector<std::size_t> scans;
};

struct ConnResult {
  std::size_t scans_posted = 0;
  std::size_t batches = 0;
  std::size_t arrival_queries = 0;
  std::size_t arrival_misses = 0;
  std::size_t errors = 0;
  std::size_t shed_503 = 0;
  std::size_t rate_limited_429 = 0;
  std::size_t deadline_504 = 0;
  std::size_t timeouts_408 = 0;
  std::size_t transport_errors = 0;
  std::size_t cache_hits = 0;
  std::size_t retries = 0;
  std::size_t good_responses = 0;
  std::vector<double> post_us;
  std::vector<double> arrival_us;
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> shed_us;

  /// Buckets a non-2xx answer into the fault-class ledger.
  void classify(int status, double us) {
    switch (status) {
      case 503:
        ++shed_503;
        shed_us.push_back(us);
        break;
      case 429:
        ++rate_limited_429;
        break;
      case 504:
        ++deadline_504;
        break;
      case 408:
        ++timeouts_408;
        break;
      default:
        break;
    }
  }
};

}  // namespace

double LoadReport::post_quantile_us(double q) const {
  return sorted_quantile(post_latency_us, q);
}

double LoadReport::arrival_quantile_us(double q) const {
  return sorted_quantile(arrival_latency_us, q);
}

double LoadReport::arrival_hit_quantile_us(double q) const {
  return sorted_quantile(arrival_hit_latency_us, q);
}

double LoadReport::arrival_miss_quantile_us(double q) const {
  return sorted_quantile(arrival_miss_latency_us, q);
}

double LoadReport::shed_quantile_us(double q) const {
  return sorted_quantile(shed_latency_us, q);
}

HttpLoadDriver::HttpLoadDriver(LoadDriverOptions options)
    : options_(std::move(options)) {
  WILOC_EXPECTS(options_.connections >= 1);
  WILOC_EXPECTS(options_.batch_size >= 1);
}

LoadReport HttpLoadDriver::run(std::span<const core::ScanSubmission> stream,
                               std::vector<ArrivalProbe> probes) {
  // Shard by trip so one connection owns a trip's whole scan sequence
  // (per-trip order is an ingest invariant; cross-trip order is not).
  std::vector<ConnPlan> plans(options_.connections);
  {
    std::vector<std::vector<const core::ScanSubmission*>> pending(
        options_.connections);
    for (const core::ScanSubmission& sub : stream) {
      const std::size_t conn = sub.trip.value() % options_.connections;
      pending[conn].push_back(&sub);
      if (pending[conn].size() >= options_.batch_size) {
        std::vector<core::ScanSubmission> batch;
        batch.reserve(pending[conn].size());
        for (const auto* p : pending[conn]) batch.push_back(*p);
        plans[conn].bodies.push_back(encode_scan_batch(batch));
        plans[conn].scans.push_back(batch.size());
        pending[conn].clear();
      }
    }
    for (std::size_t conn = 0; conn < options_.connections; ++conn) {
      if (pending[conn].empty()) continue;
      std::vector<core::ScanSubmission> batch;
      for (const auto* p : pending[conn]) batch.push_back(*p);
      plans[conn].bodies.push_back(encode_scan_batch(batch));
      plans[conn].scans.push_back(batch.size());
    }
  }

  std::vector<ConnResult> results(options_.connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(options_.connections);
  for (std::size_t conn = 0; conn < options_.connections; ++conn) {
    workers.emplace_back([this, conn, &plans, &results, &probes] {
      const ConnPlan& plan = plans[conn];
      ConnResult& r = results[conn];
      HttpClientOptions copts = options_.client;
      copts.jitter_seed += conn;  // decorrelate per-connection backoff
      HttpClient client(options_.host, options_.port, copts);
      std::size_t probe_i = conn;  // stagger probe rotation per conn
      for (std::size_t b = 0; b < plan.bodies.size(); ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        ++r.batches;
        // A faulted request costs that request, not the rest of the
        // connection's run — the client reconnects on the next one.
        try {
          const ClientResponse resp = client.post(
              "/v1/scans", plan.bodies[b], "application/json",
              options_.idempotent_posts);
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          r.post_us.push_back(us);
          if (resp.status == 200) {
            r.scans_posted += plan.scans[b];
            ++r.good_responses;
          } else {
            ++r.errors;
            r.classify(resp.status, us);
          }
        } catch (const std::exception&) {
          ++r.errors;
          ++r.transport_errors;
        }
        const auto probe_once = [&] {
          const ArrivalProbe& probe = probes[probe_i++ % probes.size()];
          std::ostringstream target;
          target << "/v1/arrival?trip=" << probe.trip.value()
                 << "&stop=" << probe.stop;
          if (probe.with_now) target << "&now=" << core::json_num(probe.now);
          const auto q0 = std::chrono::steady_clock::now();
          ++r.arrival_queries;
          try {
            const ClientResponse arrival = client.get(target.str());
            const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - q0)
                                  .count();
            r.arrival_us.push_back(us);
            const bool hit = arrival.headers.count("X-Cache") != 0;
            if (hit) {
              ++r.cache_hits;
              r.hit_us.push_back(us);
            } else {
              r.miss_us.push_back(us);
            }
            if (arrival.status == 404) {
              ++r.arrival_misses;
              ++r.good_responses;
            } else if (arrival.status == 200) {
              ++r.good_responses;
            } else {
              ++r.errors;
              r.classify(arrival.status, us);
            }
          } catch (const std::exception&) {
            ++r.errors;
            ++r.transport_errors;
          }
        };
        if (!probes.empty())
          for (std::size_t p = 0; p < options_.reads_per_post; ++p)
            probe_once();
        if (options_.arrival_every > 0 && !probes.empty() &&
            (b + 1) % options_.arrival_every == 0)
          probe_once();
      }
      r.retries = client.retries();
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  LoadReport report;
  report.wall_s = wall_s;
  for (const ConnResult& r : results) {
    report.scans_posted += r.scans_posted;
    report.batches += r.batches;
    report.arrival_queries += r.arrival_queries;
    report.arrival_misses += r.arrival_misses;
    report.errors += r.errors;
    report.shed_503 += r.shed_503;
    report.rate_limited_429 += r.rate_limited_429;
    report.deadline_504 += r.deadline_504;
    report.timeouts_408 += r.timeouts_408;
    report.transport_errors += r.transport_errors;
    report.arrival_cache_hits += r.cache_hits;
    report.retries += r.retries;
    report.good_responses += r.good_responses;
    report.post_latency_us.insert(report.post_latency_us.end(),
                                  r.post_us.begin(), r.post_us.end());
    report.arrival_latency_us.insert(report.arrival_latency_us.end(),
                                     r.arrival_us.begin(), r.arrival_us.end());
    report.arrival_hit_latency_us.insert(report.arrival_hit_latency_us.end(),
                                         r.hit_us.begin(), r.hit_us.end());
    report.arrival_miss_latency_us.insert(
        report.arrival_miss_latency_us.end(), r.miss_us.begin(),
        r.miss_us.end());
    report.shed_latency_us.insert(report.shed_latency_us.end(),
                                  r.shed_us.begin(), r.shed_us.end());
  }
  std::sort(report.post_latency_us.begin(), report.post_latency_us.end());
  std::sort(report.arrival_latency_us.begin(),
            report.arrival_latency_us.end());
  std::sort(report.arrival_hit_latency_us.begin(),
            report.arrival_hit_latency_us.end());
  std::sort(report.arrival_miss_latency_us.begin(),
            report.arrival_miss_latency_us.end());
  std::sort(report.shed_latency_us.begin(), report.shed_latency_us.end());
  report.scans_per_sec =
      wall_s > 0.0 ? static_cast<double>(report.scans_posted) / wall_s : 0.0;
  report.goodput_rps =
      wall_s > 0.0 ? static_cast<double>(report.good_responses) / wall_s : 0.0;
  report.cache_hit_rate =
      report.arrival_queries > 0
          ? static_cast<double>(report.arrival_cache_hits) /
                static_cast<double>(report.arrival_queries)
          : 0.0;
  return report;
}

}  // namespace wiloc::net
