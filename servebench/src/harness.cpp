#include "harness.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace servebench {

double tail_level(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  return 0.0;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Tolerance: 0.99 * 1000 must rank 990, not 991.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

Summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = quantile_sorted(samples, 0.5);
  s.tail_q = tail_level(s.n);
  s.tail = s.tail_q > 0.0 ? quantile_sorted(samples, s.tail_q) : s.p50;
  return s;
}

double trimmed_mean(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i + cut < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  if (end <= start) return 0.0;
  for (auto& [a, b] : children) {
    a = std::max(a, start);
    b = std::min(b, end);
  }
  std::erase_if(children, [](const auto& c) { return c.second <= c.first; });
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : children) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (end - start) - covered;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  for (const Span& s : spans)
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end << "}\n";
  return static_cast<bool>(out);
}

std::vector<long> match_sightings(const std::vector<FixPoint>& fixes,
                                  const std::vector<Sighting>& sightings,
                                  std::vector<long>* fix_run) {
  // Collapse consecutive equal offsets into runs.
  std::vector<double> run_offset;
  fix_run->assign(fixes.size(), -1);
  for (std::size_t j = 0; j < fixes.size(); ++j) {
    if (run_offset.empty() || fixes[j].offset != run_offset.back())
      run_offset.push_back(fixes[j].offset);
    (*fix_run)[j] = static_cast<long>(run_offset.size()) - 1;
  }
  std::vector<long> matched(sightings.size(), -1);
  std::size_t from = 0;
  for (std::size_t i = 0; i < sightings.size(); ++i) {
    for (std::size_t r = from; r < run_offset.size(); ++r) {
      if (run_offset[r] == sightings[i].offset) {
        matched[i] = static_cast<long>(r);
        from = r;
        break;
      }
    }
  }
  return matched;
}

std::optional<double> visible_wall(const std::vector<FixPoint>& fixes,
                                   const std::vector<Sighting>& sightings,
                                   const std::vector<long>& sighting_run,
                                   const std::vector<long>& fix_run,
                                   double scan_time, bool* no_fix) {
  const auto it = std::lower_bound(
      fixes.begin(), fixes.end(), scan_time,
      [](const FixPoint& f, double t) { return f.time < t; });
  *no_fix = it == fixes.end();
  if (*no_fix) return std::nullopt;
  const long target = fix_run[static_cast<std::size_t>(it - fixes.begin())];
  for (std::size_t i = 0; i < sightings.size(); ++i)
    if (sighting_run[i] >= target) return sightings[i].wall;
  return std::nullopt;
}

void Pacer::sent(std::size_t k, double sent) {
  lateness_.push_back(std::max(0.0, sent - due(k)));
}

double probe_cpu_s() {
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);  // 256 KB
    std::uint32_t x = 2463534242u;
    for (auto& v : t) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    return t;
  }();
  timespec a{};
  timespec b{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
  std::uint32_t h = 0;
  for (std::uint32_t i = 0; i < 200'000; ++i)
    h = (h * 2654435761u) ^ table[(h ^ i) & (table.size() - 1)];
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
  static volatile std::uint32_t sink;
  sink = h;
  return static_cast<double>(b.tv_sec - a.tv_sec) +
         static_cast<double>(b.tv_nsec - a.tv_nsec) * 1e-9;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace servebench
