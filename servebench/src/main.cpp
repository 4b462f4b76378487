// servebench: the serving benchmark's driver. One run = one workload at
// one seed; see README.md for the workloads, metrics and how to read
// them. Usually started through run.py, which builds this binary first.
//
// Usage: servebench --workload ingest|read|routed --seed N --seconds S
//                   --trace 0|1 --cache-dir DIR --state-dir DIR
//
// --trace 0 measures the end-to-end metrics (tracing off) as trimmed means
// over kDeployments fresh deployments. --trace 1 runs
// the workload untraced and then traced (each for half the seconds), the
// component replays and, on ingest/read, a short traced routed run for
// the cluster layers; it prints the per-layer metrics, including the
// tracing overhead (traced minus untraced), and writes the spans to
// DIR/spans-<workload>-<seed>.jsonl.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status 1 when a correctness check failed, 2 on bad usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "layers.hpp"
#include "serving.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace servebench;

struct Args {
  Workload workload = Workload::ingest;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string state_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "servebench: " << msg
            << "\nusage: servebench --workload ingest|read|routed --seed N"
               " --seconds S --trace 0|1 --cache-dir DIR --state-dir DIR\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (v == "ingest") a.workload = Workload::ingest;
      else if (v == "read") a.workload = Workload::read;
      else if (v == "routed") a.workload = Workload::routed;
      else usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--cache-dir") {
      a.cache_dir = v;
    } else if (flag == "--state-dir") {
      a.state_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.cache_dir.empty() || a.state_dir.empty())
    usage("--cache-dir and --state-dir are required");
  if (a.seconds < 1.0) usage("--seconds must be at least 1");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / percentile, human-readable only
};

std::string count_note(const Summary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "n=%zu, tail=p%g", s.n, s.tail_q * 100.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& shown_only = {}) {
  std::printf("\n%-34s %18s  %-8s %s\n", "metric", "value", "unit", "");
  for (const auto* list : {&metrics, &shown_only})
    for (const Metric& m : *list)
      std::printf("%-34s %18.6f  %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
  std::printf("%-34s %18.6f  %-8s attempted=%llu failed=%llu\n", "failed_frac",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              "ratio", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (!first) json += ',';
    first = false;
    json += "\"" + m.name + "\":{\"value\":" + num + ",\"unit\":\"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_pass(const char* label, const ServingReport& r) {
  std::printf(
      "# %s: setup=%.3fs scans/s=%.0f post_p50=%.3fms read_qps=%.0f "
      "read_p50=%.1fus visible_p50=%.2fms fixes=%zu eta_answers=%zu "
      "404s=%llu invisible=%llu unjudged=%llu lateness_p50=%.3fms "
      "attempted=%llu failed=%llu cpu_cores=%.2f probe=%.0fus rss=%.1fMB\n",
      label, r.setup_s, r.scans_per_s, r.post_ms.p50, r.read_qps,
      r.read_us.p50, r.visible_ms.p50, r.fix_samples, r.eta_samples,
      static_cast<unsigned long long>(r.not_found),
      static_cast<unsigned long long>(r.invisible),
      static_cast<unsigned long long>(r.unjudged), r.pace_lateness_ms.p50,
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.cpu_cores, r.probe_us,
      r.rss_mb);
  std::printf("# %s: scans/s per second:", label);
  for (const double x : r.slice_scans_per_s) std::printf(" %.0f", x);
  std::printf("\n");
  for (const std::string& v : r.violations)
    std::printf("# VIOLATION (%s): %s\n", label, v.c_str());
}

/// Deployments per --trace 0 run. On a shared VM a whole deployment runs
/// fast or slow (thread placement, neighbours), so one run's figures
/// combine several fresh deployments, each with its own set-up.
constexpr int kDeployments = 6;

/// One figure over the deployments: the mean after dropping the highest
/// and the lowest value (the plain value for fewer than three).
template <typename F>
double over_deployments(const std::vector<ServingReport>& runs, F figure) {
  std::vector<double> v;
  for (const ServingReport& r : runs) v.push_back(figure(r));
  return trimmed_mean(v);
}

std::string over_note(const std::vector<ServingReport>& runs) {
  return "trimmed mean of " + std::to_string(runs.size()) + " deployments";
}

/// The end-to-end metrics with a bound (BENCHMARK.json `end_to_end`):
/// the ones whose spread over seeds and over time stays well inside a
/// bound on the reference VM (see README.md).
std::vector<Metric> end_to_end(const std::vector<ServingReport>& runs,
                               std::uint64_t attempted, std::uint64_t failed) {
  const std::string over = over_note(runs);
  const ServingReport& first = runs.front();
  return {
      {"setup_s", over_deployments(runs, [](auto& r) { return r.setup_s; }),
       "s", over},
      {"eta_visible_p50_ms",
       over_deployments(runs, [](auto& r) { return r.visible_ms.p50; }), "ms",
       over + ", n=" + std::to_string(first.visible_ms.n) + " each"},
      {"fix_error_m_p50",
       over_deployments(runs, [](auto& r) { return r.fix_error_m_p50; }), "m",
       "n=" + std::to_string(first.fix_samples)},
      {"rss_mb", first.rss_mb, "MB", "first deployment, fresh process"},
      {"success_frac",
       1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
       "ratio", "1 - failed_frac"},
  };
}

/// End-to-end figures every run prints without a bound: the CPU-bound
/// rates and latencies, whose spread the VM's speed swings put beyond
/// any bound, the tails, the seed-dependent served-ETA error and the
/// machine-speed probe (see README.md).
std::vector<Metric> unbounded(const std::vector<ServingReport>& runs) {
  const std::string over = over_note(runs);
  const ServingReport& first = runs.front();
  const auto each = [&](const Summary& s) {
    return over + ", " + count_note(s) + " each";
  };
  return {
      {"scans_per_s",
       over_deployments(runs, [](auto& r) { return r.scans_per_s; }),
       "scans/s", over},
      {"read_qps", over_deployments(runs, [](auto& r) { return r.read_qps; }),
       "req/s", over},
      {"post_p50_ms",
       over_deployments(runs, [](auto& r) { return r.post_ms.p50; }), "ms",
       each(first.post_ms)},
      {"read_p50_us",
       over_deployments(runs, [](auto& r) { return r.read_us.p50; }), "us",
       each(first.read_us)},
      {"post_p99_ms",
       over_deployments(runs, [](auto& r) { return r.post_ms.tail; }), "ms",
       each(first.post_ms)},
      {"read_p99_us",
       over_deployments(runs, [](auto& r) { return r.read_us.tail; }), "us",
       each(first.read_us)},
      {"eta_visible_p99_ms",
       over_deployments(runs, [](auto& r) { return r.visible_ms.tail; }), "ms",
       each(first.visible_ms)},
      {"eta_error_s_p50",
       over_deployments(runs, [](auto& r) { return r.eta_error_s_p50; }), "s",
       over},
      {"machine.probe_us",
       over_deployments(runs, [](auto& r) { return r.probe_us; }), "us",
       "fixed CPU work, " + over},
  };
}

double counter(const ServingReport& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
}

std::vector<Metric> per_layer(const ServingReport& untraced,
                              const ServingReport& traced,
                              const ServingReport& cluster,
                              std::map<std::string, double> layers) {
  const double w = traced.window_s;
  const double hits = counter(traced, "arrival_cache.hits");
  const double misses = counter(traced, "arrival_cache.misses");
  std::vector<Metric> m = {
      {"net.post_handler_us_p50", traced.post_handler_us.p50, "us",
       count_note(traced.post_handler_us)},
      {"net.post_handler_us_p99", traced.post_handler_us.tail, "us",
       count_note(traced.post_handler_us)},
      {"net.post_transport_us_p50",
       traced.post_rtt_us.p50 - traced.post_handler_us.p50, "us",
       "client RTT p50 - handler p50"},
      {"net.get_handler_us_p50", traced.get_handler_us.p50, "us",
       count_note(traced.get_handler_us)},
      {"net.get_handler_us_p99", traced.get_handler_us.tail, "us",
       count_note(traced.get_handler_us)},
      {"net.get_transport_us_p50",
       traced.read_us.p50 - traced.get_handler_us.p50, "us",
       "client RTT p50 - handler p50"},
      {"net.post_residual_us",
       traced.post_handler_us.p50 -
           layers["net.decode_ns_per_scan"] * kBatchScans / 1e3 -
           layers["core.ingest_batch_us_p50"],
       "us", "handler - decode - ingest_batch"},
      {"net.requests", counter(traced, "http.requests"), "count", ""},
      {"net.shed", counter(traced, "http.shed"), "count", ""},
      {"net.status_4xx", counter(traced, "http.responses_4xx"), "count", ""},
      {"net.status_5xx", counter(traced, "http.responses_5xx"), "count", ""},
      {"core.arrival_rebuilds_per_s",
       counter(traced, "arrival_cache.rebuilds") / w, "1/s", ""},
      {"core.arrival_invalidations_per_s",
       counter(traced, "arrival_cache.invalidations") / w, "1/s", ""},
      {"core.snapshot_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", ""},
      {"core.checkpoints", counter(traced, "service.checkpoints_committed"),
       "count", ""},
      {"cluster.router_handler_us_p50", cluster.router_handler_us.p50, "us",
       count_note(cluster.router_handler_us)},
      {"cluster.router_self_us_p50", cluster.router_self_us.p50, "us",
       count_note(cluster.router_self_us)},
      {"cluster.repl_records_per_s",
       counter(cluster, "repl.records_applied") / cluster.window_s, "1/s", ""},
      {"cluster.upstream_errors", counter(cluster, "router.upstream_errors"),
       "count", ""},
      {"cluster.failovers", counter(cluster, "router.failovers"), "count", ""},
      {"trace.overhead_post_p50_ms", traced.post_ms.p50 - untraced.post_ms.p50,
       "ms", "traced - untraced"},
      {"trace.overhead_read_p50_us", traced.read_us.p50 - untraced.read_us.p50,
       "us", "traced - untraced"},
      {"trace.overhead_scans_per_s", traced.scans_per_s - untraced.scans_per_s,
       "scans/s", "traced - untraced"},
  };
  static const std::map<std::string, std::string> kUnits = {
      {"net.decode_ns_per_scan", "ns"},
      {"core.ingest_batch_us_p50", "us"},
      {"core.ingest_batch_us_p99", "us"},
      {"core.arrival_refresh_us_p50", "us"},
      {"core.engine_scans_per_s", "scans/s"},
      {"core.engine_scans_per_s_serial", "scans/s"},
      {"core.engine_queue_depth_p99", "count"},
      {"core.engine_latency_us_p99", "us"},
      {"core.accepted_ratio", "ratio"},
      {"svd.fast_path_ratio", "ratio"},
      {"svd.memo_hit_ratio", "ratio"},
      {"core.journal_bytes_per_scan", "bytes"},
      {"svd.locate_ns", "ns"},
      {"core.eta_us_p50", "us"},
      {"core.snapshot_lookup_ns", "ns"},
      {"core.checkpoint_prepare_us", "us"},
      {"core.checkpoint_commit_ms", "ms"},
      {"cluster.repl_apply_us_p50", "us"},
      {"cluster.repl_records_per_page", "count"},
  };
  for (const auto& [name, unit] : kUnits)
    m.push_back({name, layers[name], unit, "component replay"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              name_of(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# hardware: nproc=%u build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), SERVEBENCH_BUILD_TYPE,
              __VERSION__);

  const double load_start = now_s();
  const Inputs in = load_inputs(args.seed, args.cache_dir);
  std::size_t scans = 0;
  for (const auto& t : in.live) scans += t.reports.size();
  std::printf("# inputs: %zu history observations, %zu live trips, %zu scans"
              " per round (%s; ready in %.2f s)\n",
              in.history.size(), in.live.size(), scans,
              in.generate_s > 0.0 ? "generated" : "cached",
              now_s() - load_start);
  std::fflush(stdout);

  std::filesystem::create_directories(args.state_dir);
  const std::size_t uplinks = args.workload == Workload::read ? 1 : 2;
  const Plan plan(in, uplinks);

  ServingOptions base;
  base.workload = args.workload;
  base.state_dir = args.state_dir;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const char* label, const ServingReport& r) {
    print_pass(label, r);
    correct = correct && r.violations.empty();
    attempted += r.attempted;
    failed += r.failed;
  };

  if (!args.trace) {
    // Fresh deployments, each serving an equal share of the seconds; the
    // figures are trimmed means over them (see kDeployments).
    ServingOptions o = base;
    o.seconds = std::max(1.0, std::floor(args.seconds / kDeployments));
    std::vector<ServingReport> runs;
    for (int k = 0; k < kDeployments; ++k) {
      runs.push_back(run_serving(in, plan, o));
      account(("run" + std::to_string(k)).c_str(), runs.back());
    }
    print_result(correct, attempted, failed,
                 end_to_end(runs, attempted, failed), unbounded(runs));
    return correct ? 0 : 1;
  }

  ServingOptions o = base;
  o.seconds = args.seconds / 2.0;
  const ServingReport untraced = run_serving(in, plan, o);
  account("untraced", untraced);
  o.traced = true;
  ServingReport traced = run_serving(in, plan, o);
  account("traced", traced);

  ServingReport routed_short;
  const ServingReport* cluster = &traced;
  if (args.workload != Workload::routed) {
    ServingOptions c = base;
    c.workload = Workload::routed;
    c.seconds = 2.0;
    c.warmup_s = 0.5;
    c.traced = true;
    const Plan routed_plan(in, 2);
    routed_short = run_serving(in, routed_plan, c);
    account("routed-traced", routed_short);
    cluster = &routed_short;
  }

  const auto layers = run_layers(in, plan, args.state_dir);

  std::vector<Span> spans = std::move(traced.spans);
  std::uint64_t id_base = 0;
  for (const Span& s : spans) id_base = std::max(id_base, s.id);
  for (Span s : routed_short.spans) {  // keep ids unique across passes
    s.id += id_base;
    if (s.parent != 0) s.parent += id_base;
    if (s.request != 0) s.request += id_base;
    spans.push_back(std::move(s));
  }
  const std::string spans_path =
      (std::filesystem::path(args.state_dir).parent_path() /
       ("spans-" + std::string(name_of(args.workload)) + "-" +
        std::to_string(args.seed) + ".jsonl"))
          .string();
  if (write_spans(spans_path, spans))
    std::printf("# wrote %zu spans to %s\n", spans.size(), spans_path.c_str());

  // The untraced pass's end-to-end figures, for reading the layers
  // against (human-readable table only).
  std::vector<Metric> context = end_to_end({untraced}, attempted, failed);
  for (Metric& u : unbounded({untraced})) context.push_back(std::move(u));
  print_result(correct, attempted, failed,
               per_layer(untraced, traced, *cluster, layers), context);
  return correct ? 0 : 1;
}
