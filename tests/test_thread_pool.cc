#include "common/thread_pool.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

namespace star {
namespace {

TEST(ThreadPoolTest, EnsureWorkersGrowsAndClamps) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.workers(), 2);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.workers(), 4);
  pool.EnsureWorkers(3);  // never shrinks
  EXPECT_EQ(pool.workers(), 4);
  pool.EnsureWorkers(ThreadPool::kMaxWorkers + 50);
  EXPECT_EQ(pool.workers(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPoolTest, SubmitRunsOnWorkerThread) {
  ThreadPool pool(1);
  std::atomic<bool> ran(false);
  std::atomic<bool> on_caller(true);
  const std::thread::id caller = std::this_thread::get_id();
  pool.Submit([&] {
    on_caller.store(std::this_thread::get_id() == caller);
    ran.store(true);
  });
  while (!ran.load()) std::this_thread::yield();
  EXPECT_FALSE(on_caller.load());
}

}  // namespace
}  // namespace star
