#include "exec/thread_pool.h"

#include <algorithm>

namespace aggview {

ThreadPool::ThreadPool(int threads) {
  int background = threads - 1;
  workers_.reserve(background > 0 ? static_cast<size_t>(background) : 0);
  for (int i = 0; i < background; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::Claim(Region* region) {
  if (region->next == region->tasks) return -1;
  int i = region->next++;
  if (region->next == region->tasks) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), region));
  }
  return i;
}

bool ThreadPool::Finish(Region* region) {
  return ++region->done == region->tasks;
}

void ThreadPool::WorkerLoop() {
  Region* region = nullptr;  // the region of the task just run
  while (true) {
    const std::function<void(int)>* fn;
    int i;
    {
      MutexLock lock(&mu_);
      // After a region's last Finish its driver may return and the region
      // die with its stack frame, so it is not touched again below.
      if (region != nullptr && Finish(region)) done_cv_.notify_all();
      while (!shutdown_ && queue_.empty()) work_cv_.wait(lock);
      if (queue_.empty()) return;  // shutdown with no queued region
      region = queue_.front();
      fn = region->fn;
      i = Claim(region);
    }
    (*fn)(i);
  }
}

void ThreadPool::ParallelFor(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  if (workers_.empty()) {
    // Serial pool: no shared state is touched.
    for (int i = 0; i < tasks; ++i) fn(i);
    return;
  }
  Region region{&fn, tasks};
  {
    MutexLock lock(&mu_);
    queue_.push_back(&region);
  }
  work_cv_.notify_all();
  // The driver claims its own region's tasks alongside the workers, then
  // waits for the ones workers still run.
  int i = -1;
  while (true) {
    {
      MutexLock lock(&mu_);
      if (i >= 0) Finish(&region);
      i = Claim(&region);
      if (i < 0) {
        while (region.done != region.tasks) done_cv_.wait(lock);
        return;
      }
    }
    fn(i);
  }
}

}  // namespace aggview
