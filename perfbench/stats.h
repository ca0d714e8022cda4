#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure helpers of the benchmark harness, kept apart so test_stats.cc can
// check them without a dataset: the percentile rule, the open-loop arrival
// schedule and the Zipf request draws.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is set by a handful of requests.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< n
  size_t beyond = 0;   ///< samples ranked after the percentile's rank
  bool supported = false;
};

/// Nearest-rank percentile of `sorted` (ascending) at p in (0, 1]: the
/// sample at 1-based rank ceil(p * n). `beyond` = n - rank.
inline Percentile NearestRank(const std::vector<double>& sorted, double p) {
  Percentile r;
  r.samples = sorted.size();
  if (sorted.empty()) return r;
  const double exact = p * static_cast<double>(sorted.size());
  // The epsilon keeps 0.99 * 1000 (not exact in binary) at rank 990.
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  r.value = sorted[rank - 1];
  r.beyond = sorted.size() - rank;
  r.supported = r.beyond >= kMinBeyond;
  return r;
}

/// Median of an unsorted sample (mean of the middle pair for even n).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seeded Poisson arrivals at `rate` per second: the send offsets, in
/// seconds from the start of the run, of every request due before
/// `seconds`. The same (seed, rate, seconds) always gives the same list.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double seconds) {
  star::Rng rng(seed);
  std::vector<double> at;
  double t = 0.0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) return at;
    at.push_back(t);
  }
}

/// `count` requests over item ranks [0, n) whose counts follow Zipf(s)
/// exactly (largest-remainder rounding), in seeded random order. Exact
/// quotas, rather than independent draws, fix which items a sequence
/// contains, so the cold misses they cost do not change with the seed.
inline std::vector<uint32_t> ZipfSequence(uint64_t seed, size_t n, double s,
                                          size_t count) {
  std::vector<double> share(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    share[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += share[i];
  }
  std::vector<size_t> quota(n);
  std::vector<std::pair<double, size_t>> remainder(n);
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double want = static_cast<double>(count) * share[i] / total;
    quota[i] = static_cast<size_t>(want);
    assigned += quota[i];
    remainder[i] = {want - static_cast<double>(quota[i]), i};
  }
  // Ties go to the more popular (smaller) rank.
  std::sort(remainder.begin(), remainder.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (size_t j = 0; assigned < count; ++j, ++assigned) ++quota[remainder[j].second];
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t i = 0; i < n; ++i) out.insert(out.end(), quota[i], static_cast<uint32_t>(i));
  star::Rng rng(seed);
  rng.Shuffle(out);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
