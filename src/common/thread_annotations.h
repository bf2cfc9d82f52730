#ifndef AGGVIEW_COMMON_THREAD_ANNOTATIONS_H_
#define AGGVIEW_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

/// Clang thread-safety annotations (-Wthread-safety), compiled to nothing on
/// toolchains without the capability attributes (GCC). The macros carry an
/// AGGVIEW_ prefix so they never collide with a platform's own definitions.
///
/// The analysis is static and lock-based: members annotated
/// AGGVIEW_GUARDED_BY(mu) may only be touched while `mu` is held, which clang
/// proves at compile time. std::mutex under libstdc++ carries no capability
/// attributes, so the annotated aggview::Mutex / aggview::MutexLock wrappers
/// below are what guarded code locks with; they are zero-cost shims over
/// std::mutex.
///
/// Not everything shared is lock-guarded: the executor's hot paths
/// synchronize through atomics (IoAccountant's counters, the scan's morsel
/// cursor) or through the return of ThreadPool::ParallelFor (a join's held
/// table, published by its partition merge): every task's finish and the
/// driver's check that its region's `done` count is complete take the pool
/// mutex, so the tasks' writes happen-before the return. Those members
/// are annotated AGGVIEW_LOCK_FREE(...) — an expands-to-nothing marker that
/// states the synchronization discipline where GUARDED_BY would state a
/// mutex, so every cross-thread member in the codebase declares how it is
/// made safe.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define AGGVIEW_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef AGGVIEW_THREAD_ANNOTATION
#define AGGVIEW_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define AGGVIEW_CAPABILITY(x) AGGVIEW_THREAD_ANNOTATION(capability(x))
#define AGGVIEW_SCOPED_CAPABILITY AGGVIEW_THREAD_ANNOTATION(scoped_lockable)
#define AGGVIEW_GUARDED_BY(x) AGGVIEW_THREAD_ANNOTATION(guarded_by(x))
#define AGGVIEW_PT_GUARDED_BY(x) AGGVIEW_THREAD_ANNOTATION(pt_guarded_by(x))
#define AGGVIEW_REQUIRES(...) \
  AGGVIEW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define AGGVIEW_ACQUIRE(...) \
  AGGVIEW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define AGGVIEW_RELEASE(...) \
  AGGVIEW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define AGGVIEW_EXCLUDES(...) \
  AGGVIEW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define AGGVIEW_RETURN_CAPABILITY(x) \
  AGGVIEW_THREAD_ANNOTATION(lock_returned(x))
#define AGGVIEW_NO_THREAD_SAFETY_ANALYSIS \
  AGGVIEW_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documents a member that is shared across threads but synchronized by
/// means the lock-based analysis cannot model: atomic operations, or the
/// happens-before edge from a ParallelFor region's tasks to its return (the
/// region's `done` count, read and written under the pool mutex). Expands to
/// nothing; the argument is the discipline.
#define AGGVIEW_LOCK_FREE(discipline)

namespace aggview {

/// std::mutex with clang capability attributes, so members can be declared
/// AGGVIEW_GUARDED_BY(mu_) and the analysis can verify every access.
class AGGVIEW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AGGVIEW_ACQUIRE() { mu_.lock(); }
  void Unlock() AGGVIEW_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex. Also satisfies BasicLockable (lock / unlock), so a
/// std::condition_variable_any can release and reacquire it inside wait();
/// the analysis treats the capability as held across the wait, which is the
/// correct before/after contract.
class AGGVIEW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) AGGVIEW_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() AGGVIEW_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// BasicLockable hooks for std::condition_variable_any. Only the condition
  /// variable calls these (the capability state is unchanged from the
  /// analysis' point of view — wait() returns with the lock re-held).
  void lock() AGGVIEW_NO_THREAD_SAFETY_ANALYSIS { mu_->Lock(); }
  void unlock() AGGVIEW_NO_THREAD_SAFETY_ANALYSIS { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

}  // namespace aggview

#endif  // AGGVIEW_COMMON_THREAD_ANNOTATIONS_H_
