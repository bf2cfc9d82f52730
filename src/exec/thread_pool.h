#ifndef AGGVIEW_EXEC_THREAD_POOL_H_
#define AGGVIEW_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace aggview {

/// A fixed-size worker pool for morsel-driven parallel execution.
///
/// Each ParallelFor call is a region: `fn`, its task count and two counters,
/// held on the calling (driver) thread's stack. The call queues its region
/// FIFO, wakes the workers and claims its own region's tasks until none is
/// left; workers claim from the front region of the queue. A region leaves
/// the queue when its last task is claimed, and the call returns when its
/// own `done` count reaches its task count. Workers are spawned once at
/// construction and parked on a condition variable between regions, so a
/// query plan with several parallel regions (pipeline instances over a
/// shared morsel dispenser, partition tasks of a hash-table merge) pays the
/// thread-creation cost once.
///
/// Several threads may drive the pool at once (a server's client sessions
/// sharing one pool). Their regions overlap: a driver never waits for
/// another driver's region, only for its own tasks, which it runs itself
/// when every worker is busy elsewhere. Statement-level fairness is the
/// serving layer's AdmissionController, not the pool's.
///
/// Not reentrant: ParallelFor must not be called from inside a task. Within
/// one query the executor parallelizes one region at a time; nested
/// operators run their parallel drains during Open, strictly before the
/// enclosing region's ParallelFor starts.
class ThreadPool {
 public:
  /// A pool that runs ParallelFor on `threads` threads total: the caller plus
  /// `threads - 1` background workers. `threads <= 1` spawns nothing.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, tasks), each exactly once, on the calling
  /// thread and whichever workers claim the region's tasks. Returns when every
  /// task has finished; no thread touches the region or `fn` afterwards, so
  /// `fn` and anything it captured may be destroyed immediately. Writes made
  /// by tasks happen-before the return (each task's finish and the return's
  /// check of the region's `done` count take the pool mutex). On a 1-thread
  /// pool this is a plain loop that touches no shared state.
  void ParallelFor(int tasks, const std::function<void(int)>& fn);

 private:
  // One ParallelFor call, on its driver's stack. `next` and `done` are
  // touched only under mu_: by Claim, Finish and the driver's final wait.
  // They carry no GUARDED_BY because a Region has no path to its pool, so
  // an annotation on its fields cannot name this pool's mu_.
  struct Region {
    const std::function<void(int)>* fn;
    int tasks;
    int next = 0;  // first unclaimed task index
    int done = 0;  // tasks finished
  };

  void WorkerLoop();
  // Claims `region`'s next task and returns its index, or -1 when every task
  // is claimed. Claiming the last task takes the region off queue_.
  int Claim(Region* region) AGGVIEW_REQUIRES(mu_);
  // Counts one finished task of `region`; true when it was the last one.
  bool Finish(Region* region) AGGVIEW_REQUIRES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  // condition_variable_any, because the annotated MutexLock (not a
  // std::unique_lock<std::mutex>) is what wait() releases and reacquires.
  std::condition_variable_any work_cv_;  // signals a queued region / shutdown
  std::condition_variable_any done_cv_;  // signals a region's last finish
  // Regions with unclaimed tasks, in arrival order.
  std::deque<Region*> queue_ AGGVIEW_GUARDED_BY(mu_);
  bool shutdown_ AGGVIEW_GUARDED_BY(mu_) = false;
};

}  // namespace aggview

#endif  // AGGVIEW_EXEC_THREAD_POOL_H_
