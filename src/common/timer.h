#ifndef STAR_COMMON_TIMER_H_
#define STAR_COMMON_TIMER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace star {

/// Monotonic wall-clock stopwatch used by the benchmark harness.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / Restart, in milliseconds.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  double ElapsedSeconds() const { return ElapsedMillis() / 1000.0; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Process CPU-time stopwatch: sums CPU consumed by *all* threads of the
/// process, so it also counts work other threads (concurrent requests, a
/// benchmark's clients) did in the same interval. StarSearchStats reports
/// it for star initialization beside the wall time.
class CpuTimer {
 public:
  CpuTimer() { Restart(); }

  void Restart() { start_ = NowMillis(); }

  double ElapsedMillis() const { return NowMillis() - start_; }

 private:
  static double NowMillis();
  double start_ = 0.0;
};

/// Accumulates samples and reports mean / stddev / percentiles.
/// Used for per-query runtimes and per-star search depths (Fig. 14(d)).
class StatAccumulator {
 public:
  void Add(double x) { samples_.push_back(x); }

  size_t count() const { return samples_.size(); }

  double Sum() const {
    double s = 0;
    for (double x : samples_) s += x;
    return s;
  }

  double Mean() const { return samples_.empty() ? 0.0 : Sum() / samples_.size(); }

  double StdDev() const {
    if (samples_.size() < 2) return 0.0;
    const double m = Mean();
    double acc = 0;
    for (double x : samples_) acc += (x - m) * (x - m);
    return std::sqrt(acc / (samples_.size() - 1));
  }

  double Min() const {
    return samples_.empty() ? 0.0
                            : *std::min_element(samples_.begin(), samples_.end());
  }

  double Max() const {
    return samples_.empty() ? 0.0
                            : *std::max_element(samples_.begin(), samples_.end());
  }

  /// p in [0,1]; nearest-rank percentile over the recorded samples.
  double Percentile(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = std::min(
        sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1) + 0.5));
    return sorted[idx];
  }

 private:
  std::vector<double> samples_;
};

}  // namespace star

#endif  // STAR_COMMON_TIMER_H_
