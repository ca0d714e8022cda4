#ifndef STAR_COMMON_THREAD_POOL_H_
#define STAR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace star {

/// A pool of reusable worker threads with a shared FIFO task queue.
/// Workers are started on demand (EnsureWorkers) and kept for the pool's
/// lifetime. The query service runs each admitted request as one task on
/// the process-wide instance (Global()), sized to its max_inflight.
class ThreadPool {
 public:
  /// Upper bound on workers the pool will ever spawn (sanity cap; an
  /// EnsureWorkers asking for more is clamped, not rejected).
  static constexpr int kMaxWorkers = 64;

  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const;

  /// Spawns additional workers so at least min(`workers`, kMaxWorkers)
  /// exist. Never shrinks.
  void EnsureWorkers(int workers);

  /// Enqueues one task for any worker. Fire-and-forget: the caller is
  /// responsible for its own completion signaling.
  void Submit(std::function<void()> task);

  /// Process-wide shared pool, created on first use with no workers; its
  /// users size it with EnsureWorkers. Intentionally leaked so worker
  /// threads never race static destruction at exit.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

}  // namespace star

#endif  // STAR_COMMON_THREAD_POOL_H_
