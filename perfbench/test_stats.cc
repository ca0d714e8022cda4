// Checks of the harness's own logic that need no dataset: the
// at-least-10-beyond percentile rule and the determinism of the open-loop
// schedule and the Zipf draws. Run by `python3 perfbench/run.py selftest`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void PercentileRule() {
  using perfbench::NearestRank;
  // p99 of 1000 samples sits at rank 990 with exactly 10 beyond it.
  const auto p99 = NearestRank(Ramp(1000), 0.99);
  Check(p99.value == 990.0, "p99 of 1..1000 is 990");
  Check(p99.beyond == 10 && p99.supported, "p99 of 1000 has 10 beyond");
  // One sample fewer leaves only 9 beyond: not reportable.
  const auto short99 = NearestRank(Ramp(999), 0.99);
  Check(short99.beyond == 9 && !short99.supported, "p99 of 999 unsupported");
  // p95 needs 200 samples.
  Check(NearestRank(Ramp(200), 0.95).supported, "p95 of 200 supported");
  Check(!NearestRank(Ramp(199), 0.95).supported, "p95 of 199 unsupported");
  // The median of an odd ramp is its middle element.
  const auto p50 = NearestRank(Ramp(101), 0.5);
  Check(p50.value == 51.0 && p50.beyond == 50, "p50 of 1..101 is 51");
  Check(NearestRank({}, 0.5).samples == 0, "empty sample");
  Check(perfbench::Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void ScheduleDeterminism() {
  const auto a = perfbench::PoissonSchedule(7, 160.0, 10.0);
  const auto b = perfbench::PoissonSchedule(7, 160.0, 10.0);
  const auto c = perfbench::PoissonSchedule(8, 160.0, 10.0);
  Check(a == b, "same seed, same schedule");
  Check(a != c, "another seed, another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  Check(increasing && !a.empty() && a.back() < 10.0, "schedule is ordered");
  // 1600 expected arrivals; 5 standard deviations is 200.
  Check(std::abs(static_cast<double>(a.size()) - 1600.0) < 200.0,
        "schedule keeps its rate");
}

void ZipfDeterminism() {
  const auto a = perfbench::ZipfSequence(3, 512, 1.0, 2500);
  const auto b = perfbench::ZipfSequence(3, 512, 1.0, 2500);
  const auto c = perfbench::ZipfSequence(4, 512, 1.0, 2500);
  Check(a == b, "same seed, same sequence");
  Check(a != c, "another seed, another order");
  Check(a.size() == 2500, "sequence has the requested length");
  std::vector<size_t> count_a(512, 0), count_c(512, 0);
  bool in_range = true;
  for (const uint32_t x : a) {
    in_range &= x < 512;
    if (x < 512) ++count_a[x];
  }
  for (const uint32_t x : c) ++count_c[x % 512];
  Check(in_range, "ranks stay in range");
  Check(count_a == count_c, "every seed sends the same multiset");
  // Zipf(1) over 512 ranks: rank r gets 2500 / ((r + 1) H(512)) requests,
  // rounded; every rank's quota rounds to at least 1.
  double h = 0.0;
  for (int r = 1; r <= 512; ++r) h += 1.0 / r;
  bool exact = true;
  for (size_t r = 0; r < 512; ++r) {
    exact &= std::abs(static_cast<double>(count_a[r]) -
                      2500.0 / (static_cast<double>(r + 1) * h)) < 1.0;
  }
  Check(exact, "quotas follow Zipf(1)");
  Check(*std::min_element(count_a.begin(), count_a.end()) >= 1,
        "the rarest rank is still sent");
}

}  // namespace

int main() {
  PercentileRule();
  ScheduleDeterminism();
  ZipfDeterminism();
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
