#ifndef AGGVIEW_EXEC_EXEC_CONTEXT_H_
#define AGGVIEW_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/row_batch.h"

namespace aggview {

class DataflowVerifier;
class IoAccountant;
struct OpStats;
class RuntimeStatsCollector;
class ThreadPool;

/// Default number of rows per morsel — the unit of work a parallel scan hands
/// to a worker. Large enough that claiming one (an atomic fetch-add) is noise
/// against scanning it, small enough that a skewed pipeline rebalances.
inline constexpr int64_t kDefaultMorselRows = 16384;

/// Upper clamp for the AGGVIEW_TEST_THREADS environment override: far above
/// any real core count, low enough that a typo cannot spawn thousands of
/// workers.
inline constexpr int kMaxEnvThreads = 256;

/// Upper clamp for the AGGVIEW_TEST_BATCH_SIZE environment override (1M rows
/// per batch; larger only wastes memory without changing semantics).
inline constexpr int kMaxEnvBatchSize = 1 << 20;

/// Reads environment variable `name` as a positive decimal integer knob.
/// Returns `fallback` when the variable is unset, empty, not a complete
/// decimal number, or zero/negative (a nonpositive thread count or batch size
/// has no meaning); values above `max_value` clamp to `max_value`. Never
/// returns a value outside [1, max_value] unless it returns `fallback`
/// verbatim.
int EnvKnob(const char* name, int fallback, int max_value);

// Compatibility stubs for the perfbench/ package, which still spells these
// names: it pins ServerOptions::backend = ExecBackend::kInterpret and
// bytecode_verify = BytecodeVerifyMode::kOn, and copies both fields into an
// ExecContext. There is one evaluation engine, so each enum has one value
// and nothing reads the four fields (ExecContext::backend/bytecode_verify,
// ServerOptions::backend/bytecode_verify). They go together with
// perfbench's TracedServer.
enum class ExecBackend { kInterpret };
enum class BytecodeVerifyMode { kOn };

/// The one shared surface resolving the execution-default environment knobs
/// (AGGVIEW_TEST_THREADS, AGGVIEW_TEST_BATCH_SIZE). ExecContext::Default() and
/// ServerOptions::Default() both read their defaults from here, so a CI lane
/// that exports one of the knobs steers the executor, the server and the
/// fuzzer identically.
struct ExecDefaults {
  int threads = 1;
  int batch_size = kDefaultBatchSize;

  static ExecDefaults FromEnv();
};

/// Everything ExecutePlan needs beyond the plan itself, with fluent setters:
///
///   ExecutePlan(plan, query,
///               ExecContext{}.WithThreads(8).WithBatchSize(1024)
///                            .WithStats(&collector));
///
/// Plain aggregate struct: copyable, no ownership — the pointers (io, stats,
/// pool) must outlive the execution.
struct ExecContext {
  /// Capacity of every batch flowing through the operator tree (1 degrades
  /// to row-at-a-time Volcano behaviour).
  int batch_size = kDefaultBatchSize;
  /// Intra-query parallelism: number of pipeline instances running
  /// morsel-parallel regions. 1 executes serially on the calling thread.
  int threads = 1;
  /// Rows per scan morsel.
  int64_t morsel_rows = kDefaultMorselRows;
  /// Unread; see ExecBackend.
  ExecBackend backend = ExecBackend::kInterpret;
  /// IO page charge sink; may be null (uncharged execution).
  IoAccountant* io = nullptr;
  /// EXPLAIN ANALYZE collector; null runs uninstrumented (no clocks).
  RuntimeStatsCollector* stats = nullptr;
  /// External worker pool to run on (e.g. a Server's). Null lets the
  /// executor create a private pool for the query when threads > 1.
  ThreadPool* pool = nullptr;
  /// Debug self-verification mode: when set, every operator checks each
  /// produced batch against the verifier's static dataflow facts (NULLs only
  /// in maybe/always columns, values inside the derived domains), and the
  /// executor checks every node's total row count against the provable
  /// [lo, hi] after the drain. The verifier must have been built for the
  /// same plan that is executed, and must outlive the execution.
  const DataflowVerifier* verify = nullptr;
  /// Unread; see ExecBackend.
  BytecodeVerifyMode bytecode_verify = BytecodeVerifyMode::kOn;

  ExecContext& WithBatchSize(int n) {
    batch_size = n > 0 ? n : 1;
    return *this;
  }
  ExecContext& WithThreads(int n) {
    threads = n > 0 ? n : 1;
    return *this;
  }
  ExecContext& WithMorselRows(int64_t n) {
    morsel_rows = n > 0 ? n : 1;
    return *this;
  }
  ExecContext& WithIo(IoAccountant* accountant) {
    io = accountant;
    return *this;
  }
  ExecContext& WithStats(RuntimeStatsCollector* collector) {
    stats = collector;
    return *this;
  }
  ExecContext& WithPool(ThreadPool* p) {
    pool = p;
    return *this;
  }
  ExecContext& WithVerify(const DataflowVerifier* verifier) {
    verify = verifier;
    return *this;
  }

  /// The standard context: default batch size and serial execution, unless
  /// the environment overrides it — AGGVIEW_TEST_BATCH_SIZE (CI's degenerate
  /// one-row-batch runs) and AGGVIEW_TEST_THREADS (CI's TSan job runs the
  /// whole suite at 8 threads to drive every query through the parallel
  /// paths). Both resolve through ExecDefaults::FromEnv().
  static ExecContext Default();
};

/// The runtime state one operator tree shares across its parallel regions:
/// thread budget, morsel geometry, the worker pool, and the private stats
/// blocks of the current region's worker clones. Lowering creates one per
/// execution and hands every operator a shared_ptr; worker clones share the
/// primary's. The pool is created lazily (on the driver thread, strictly
/// before any worker runs) so serial executions never pay for threads.
class ExecRuntime {
 public:
  ExecRuntime(int threads, int64_t morsel_rows, ThreadPool* external_pool);
  ~ExecRuntime();

  int threads() const { return threads_; }
  int64_t morsel_rows() const { return morsel_rows_; }
  bool parallel() const { return threads_ > 1; }

  /// The pool to run ParallelFor on. Driver thread only.
  ThreadPool* pool();

  /// A private stats block for a worker clone whose primary reports into
  /// `primary`; null when `primary` is (the primary runs unobserved). The
  /// block lives until FoldWorkerStats. Driver thread only, before the
  /// region starts.
  OpStats* WorkerStats(OpStats* primary);

  /// Folds every block WorkerStats handed out into its primary block
  /// (OpStats::MergeFrom) and frees them. Driver thread only, after the
  /// region's barrier. Regions run one at a time per execution, so the
  /// pending blocks are exactly the finished region's.
  void FoldWorkerStats();

 private:
  int threads_;
  int64_t morsel_rows_;
  ThreadPool* external_;
  std::unique_ptr<ThreadPool> owned_;
  /// (primary block, worker block) pairs of the current region.
  std::vector<std::pair<OpStats*, std::unique_ptr<OpStats>>> worker_stats_;
};

}  // namespace aggview

#endif  // AGGVIEW_EXEC_EXEC_CONTEXT_H_
