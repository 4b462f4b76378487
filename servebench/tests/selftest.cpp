// Tests of the benchmark's own measurement code (src/harness.*): the
// tail-percentile rule, the trimmed mean over deployments, span self
// time, snapshot-sighting to fix matching, and open-loop pacing. Exits non-zero on the first failure.
//
//   python3 servebench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"

namespace {

using namespace servebench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) expect(std::abs((a) - (b)) < 1e-9, #a " ~ " #b, __LINE__)

void tail_rule() {
  EXPECT(tail_level(0) == 0.0);
  EXPECT(tail_level(19) == 0.0);
  EXPECT(tail_level(20) == 0.5);
  EXPECT(tail_level(39) == 0.5);
  EXPECT(tail_level(40) == 0.75);
  EXPECT(tail_level(100) == 0.9);
  EXPECT(tail_level(199) == 0.9);
  EXPECT(tail_level(200) == 0.95);
  EXPECT(tail_level(999) == 0.95);
  EXPECT(tail_level(1000) == 0.99);
  EXPECT(tail_level(1000000) == 0.99);

  // 1000 samples 1..1000: p99 has exactly ten samples beyond it.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT(s.n == 1000);
  EXPECT(s.tail_q == 0.99);
  EXPECT_NEAR(s.tail, 990.0);
  EXPECT_NEAR(s.p50, 500.0);
  std::size_t beyond = 0;
  for (const double x : v) beyond += x > s.tail ? 1 : 0;
  EXPECT(beyond == 10);

  // 150 samples: p99 would have 1.5 beyond it, so p90 is reported.
  std::vector<double> w(150);
  for (int i = 0; i < 150; ++i) w[i] = i + 1;
  const Summary t = summarize(w);
  EXPECT(t.tail_q == 0.9);
  EXPECT_NEAR(t.tail, 135.0);

  std::vector<double> empty;
  EXPECT(summarize(empty).n == 0);
}

void trimmed_mean_rule() {
  std::vector<double> none;
  EXPECT_NEAR(trimmed_mean(none), 0.0);
  std::vector<double> two = {4.0, 2.0};
  EXPECT_NEAR(trimmed_mean(two), 3.0);  // too few to trim
  // One slow and one fast outlier are dropped: mean of 10, 11, 12, 13.
  std::vector<double> six = {13.0, 40.0, 10.0, 1.0, 12.0, 11.0};
  EXPECT_NEAR(trimmed_mean(six), 11.5);
  // Only one copy of a repeated extreme goes.
  std::vector<double> ties = {5.0, 5.0, 5.0, 9.0};
  EXPECT_NEAR(trimmed_mean(ties), 5.0);
}

void span_self_time() {
  // No children: the whole duration.
  EXPECT_NEAR(self_time(0.0, 10.0, {}), 10.0);
  // Disjoint children.
  EXPECT_NEAR(self_time(0.0, 10.0, {{1.0, 2.0}, {4.0, 6.0}}), 7.0);
  // Overlapping children count once: [1,5] u [3,7] = [1,7].
  EXPECT_NEAR(self_time(0.0, 10.0, {{3.0, 7.0}, {1.0, 5.0}}), 4.0);
  // Nested child inside another.
  EXPECT_NEAR(self_time(0.0, 10.0, {{1.0, 9.0}, {2.0, 3.0}}), 2.0);
  // Children sticking out of the parent are clipped.
  EXPECT_NEAR(self_time(2.0, 6.0, {{0.0, 3.0}, {5.0, 9.0}}), 2.0);
  // A child entirely outside does not count.
  EXPECT_NEAR(self_time(2.0, 6.0, {{7.0, 9.0}}), 4.0);
  // Touching children merge without double counting.
  EXPECT_NEAR(self_time(0.0, 4.0, {{1.0, 2.0}, {2.0, 3.0}}), 2.0);
  // Fully covered.
  EXPECT_NEAR(self_time(0.0, 4.0, {{0.0, 4.0}, {1.0, 2.0}}), 0.0);
}

void offset_to_fix_matching() {
  // Fixes at sim times 10..60; 30 and 40 share an offset (bus standing).
  const std::vector<FixPoint> fixes = {
      {10, 100.0}, {20, 150.0}, {30, 200.0}, {40, 200.0}, {50, 260.0},
      {60, 300.0}};
  // The watcher saw 100, then 200 (150 was skipped by coalescing), then
  // an offset that matches no fix, then 300.
  const std::vector<Sighting> seen = {
      {1.0, 100.0}, {2.0, 200.0}, {2.5, 999.0}, {3.0, 300.0}};
  std::vector<long> fix_run;
  const auto run = match_sightings(fixes, seen, &fix_run);
  EXPECT((fix_run == std::vector<long>{0, 1, 2, 2, 3, 4}));
  EXPECT((run == std::vector<long>{0, 2, -1, 4}));

  bool no_fix = false;
  // Scan at t=15 -> first fix at/after is t=20 (run 1); first sighting
  // at or after run 1 is the 200 one at wall 2.0.
  auto w = visible_wall(fixes, seen, run, fix_run, 15.0, &no_fix);
  EXPECT(!no_fix && w.has_value() && *w == 2.0);
  // Scan at t=40 -> fix t=40 shares run 2 with t=30, already shown at 2.0.
  w = visible_wall(fixes, seen, run, fix_run, 40.0, &no_fix);
  EXPECT(!no_fix && w.has_value() && *w == 2.0);
  // Scan at t=45 -> fix t=50 (run 3) never shown alone; 300 at 3.0 is later.
  w = visible_wall(fixes, seen, run, fix_run, 45.0, &no_fix);
  EXPECT(!no_fix && w.has_value() && *w == 3.0);
  // Scan after the last fix: cannot be judged.
  w = visible_wall(fixes, seen, run, fix_run, 61.0, &no_fix);
  EXPECT(no_fix && !w.has_value());
  // Never shown: the last fix's run has no sighting.
  const std::vector<Sighting> early = {{1.0, 100.0}};
  const auto run2 = match_sightings(fixes, early, &fix_run);
  w = visible_wall(fixes, early, run2, fix_run, 55.0, &no_fix);
  EXPECT(!no_fix && !w.has_value());
  // Monotone: a later sighting of an earlier offset does not rewind.
  const std::vector<Sighting> back = {{1.0, 260.0}, {2.0, 100.0}};
  const auto run3 = match_sightings(fixes, back, &fix_run);
  EXPECT((run3 == std::vector<long>{3, -1}));
}

void open_loop_pacing() {
  Pacer pacer(100.0, 0.05);
  EXPECT_NEAR(pacer.due(0), 100.0);
  EXPECT_NEAR(pacer.due(4), 100.2);
  pacer.sent(0, 100.0);    // on time
  pacer.sent(1, 100.07);   // 20 ms late
  pacer.sent(2, 100.14);   // a stall: 40 ms late, and it delays...
  pacer.sent(3, 100.16);   // ...the next one by 10 ms
  pacer.sent(4, 100.19);   // early never counts as negative
  const auto& late = pacer.lateness();
  EXPECT(late.size() == 5);
  EXPECT_NEAR(late[0], 0.0);
  EXPECT(std::abs(late[1] - 0.02) < 1e-9);
  EXPECT(std::abs(late[2] - 0.04) < 1e-9);
  EXPECT(std::abs(late[3] - 0.01) < 1e-9);
  EXPECT_NEAR(late[4], 0.0);
  // The schedule does not drift with lateness: due times stay fixed.
  EXPECT(std::abs(pacer.due(100) - 105.0) < 1e-9);
}

}  // namespace

int main() {
  tail_rule();
  trimmed_mean_rule();
  span_self_time();
  offset_to_fix_matching();
  open_loop_pacing();
  if (g_failures == 0) std::printf("servebench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
