#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace star {

ThreadPool::ThreadPool(int workers) { EnsureWorkers(workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::EnsureWorkers(int workers) {
  const int want = std::min(workers, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < want) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace star
