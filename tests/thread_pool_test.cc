#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace aggview {
namespace {

/// ThreadPool::ParallelFor's contract, tested on the pool directly: every
/// index runs exactly once, the tasks' writes are visible when the call
/// returns, `fn` may die right after, and concurrent drivers neither lose
/// tasks nor wait for each other's regions.

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (int tasks : {0, 1, 3, 64}) {
      std::vector<std::atomic<int>> runs(static_cast<size_t>(tasks));
      pool.ParallelFor(tasks, [&](int i) {
        runs[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      });
      for (int i = 0; i < tasks; ++i) {
        EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1)
            << "threads=" << threads << " tasks=" << tasks << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, TaskWritesAreVisibleOnReturn) {
  ThreadPool pool(4);
  // Plain (non-atomic) cells: only the return's happens-before edge makes
  // reading them here race-free.
  std::vector<int64_t> out(64, -1);
  pool.ParallelFor(64, [&](int i) {
    out[static_cast<size_t>(i)] = static_cast<int64_t>(i) * i;
  });
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], static_cast<int64_t>(i) * i);
  }
}

TEST(ThreadPoolTest, BackToBackRegionsCaptureStackData) {
  ThreadPool pool(4);
  for (int r = 0; r < 2000; ++r) {
    // A fresh stack frame per region: a worker still holding the previous
    // region's `fn` would read a dead frame (and trip the sanitizers).
    int64_t cells[5] = {0, 0, 0, 0, 0};
    const int tasks = 1 + r % 5;
    pool.ParallelFor(tasks, [&cells, r](int i) { cells[i] = r + i; });
    for (int i = 0; i < tasks; ++i) ASSERT_EQ(cells[i], r + i) << "region " << r;
  }
}

TEST(ThreadPoolTest, ConcurrentDriversAllComplete) {
  constexpr int kDrivers = 8;
  constexpr int kRegions = 300;
  ThreadPool pool(3);
  std::vector<int64_t> sums(kDrivers, 0);
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &sums, d] {
      for (int r = 0; r < kRegions; ++r) {
        std::vector<int64_t> cells(static_cast<size_t>(1 + (d + r) % 6), 0);
        pool.ParallelFor(static_cast<int>(cells.size()), [&](int i) {
          cells[static_cast<size_t>(i)] = i + 1;
        });
        for (int64_t c : cells) sums[static_cast<size_t>(d)] += c;
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (int d = 0; d < kDrivers; ++d) {
    int64_t want = 0;
    for (int r = 0; r < kRegions; ++r) {
      int64_t n = 1 + (d + r) % 6;
      want += n * (n + 1) / 2;
    }
    EXPECT_EQ(sums[static_cast<size_t>(d)], want) << "driver " << d;
  }
}

TEST(ThreadPoolTest, DriverDoesNotWaitForAnotherDriversRegion) {
  // Driver A's only task blocks until driver B's ParallelFor has returned.
  // B must complete its own region while A's is still running; the wait is
  // bounded, so a pool that serializes whole regions fails instead of
  // hanging.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool a_running = false;
  bool b_returned = false;
  bool a_saw_b_return = false;
  std::thread a([&] {
    pool.ParallelFor(1, [&](int) {
      std::unique_lock<std::mutex> lock(mu);
      a_running = true;
      cv.notify_all();
      a_saw_b_return = cv.wait_for(lock, std::chrono::seconds(4),
                                   [&] { return b_returned; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_running; });
  }
  std::vector<int> ran(3, 0);
  pool.ParallelFor(3, [&](int i) { ran[static_cast<size_t>(i)] = 1; });
  {
    std::lock_guard<std::mutex> lock(mu);
    b_returned = true;
  }
  cv.notify_all();
  a.join();
  EXPECT_TRUE(a_saw_b_return)
      << "driver B's region waited for driver A's region to finish";
  EXPECT_EQ(ran, std::vector<int>({1, 1, 1}));
}

TEST(ThreadPoolTest, DestroyingAnUnusedPoolJoinsItsWorkers) {
  for (int threads : {0, 1, 2, 4}) {
    ThreadPool pool(threads);
  }
}

}  // namespace
}  // namespace aggview
