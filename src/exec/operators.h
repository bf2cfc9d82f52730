#ifndef AGGVIEW_EXEC_OPERATORS_H_
#define AGGVIEW_EXEC_OPERATORS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/query.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/compile/expr_compiler.h"
#include "exec/exec_context.h"
#include "exec/row_batch.h"
#include "storage/io_accountant.h"
#include "storage/table.h"

namespace aggview {

struct OpStats;
struct PlanNode;
class DataflowVerifier;
class Operator;
using OperatorPtr = std::unique_ptr<Operator>;

/// Batch-at-a-time physical operator: Open / Next(RowBatch*) / Close.
/// Operators charge the IoAccountant with the same page-granularity formulas
/// the cost model uses, evaluated on *actual* (not estimated) cardinalities,
/// so measured IO is the ground truth the estimates are judged against.
///
/// Next fills the caller's batch with up to batch->capacity() rows and
/// returns true; it returns false (batch empty) only at end of stream, so no
/// phantom empty batch precedes end-of-stream and mid-stream batches are
/// never empty. Calling Next again after end of stream is safe and keeps
/// returning false.
///
/// The public Open/Next/Close entry points are non-virtual: when a stats
/// sink is installed (set_stats) they time each call and count produced
/// batches and rows before dispatching to the virtual *Impl methods; with no
/// sink they dispatch directly. Either way the cost is paid once per *batch*,
/// not once per tuple, which is the point of the batch protocol.
///
/// Morsel-driven parallelism (RunMorselParallel below): a pipeline whose
/// operators all answer CanRunMorselParallel() true can be cloned after Open
/// into extra worker instances. All cross-instance state lives in one object
/// the clones share with their primary — the scan's morsel dispenser, a hash
/// join's build table (which also sums the probe rows and fires the join's
/// IO charge when the last instance reaches end of stream) — so the
/// instances split the row multiset disjointly and charged pages are
/// byte-identical to serial execution. Clones are born open and count into
/// private OpStats blocks the ExecRuntime hands out and folds back into the
/// primaries' blocks when the region drains.
class Operator {
 public:
  virtual ~Operator();

  Status Open();
  /// Fills `out` with the next batch of rows; returns false at end of
  /// stream. `out` is cleared first; its capacity is the caller's choice.
  Result<bool> Next(RowBatch* out);
  void Close();

  const RowLayout& layout() const { return layout_; }

  /// Installs the runtime-stats sink (owned by the caller, typically a
  /// RuntimeStatsCollector). Must be set before Open.
  void set_stats(OpStats* stats) { stats_ = stats; }
  const OpStats* stats() const { return stats_; }

  /// Capacity of the batches this operator allocates internally (input-side
  /// buffers, Open-time drains). The batch handed to Next has its own
  /// capacity; lowering installs one size everywhere. Must be set before
  /// Open.
  void set_batch_size(int batch_size) {
    batch_size_ = batch_size > 0 ? batch_size : 1;
  }
  int batch_size() const { return batch_size_; }

  /// Installs the shared execution runtime (thread budget, morsel geometry,
  /// worker pool). Lowering sets it on every operator; null means serial.
  /// A parallel region needs it on every operator of the pipeline: worker
  /// clones take their stats blocks from it.
  void set_exec(std::shared_ptr<ExecRuntime> exec) { exec_ = std::move(exec); }
  ExecRuntime* exec_runtime() const { return exec_.get(); }

  /// Installs the dataflow self-verification hook (ExecContext::verify):
  /// the non-virtual Next checks every produced batch against the static
  /// facts the verifier derived for `node`. Both pointers are borrowed and
  /// must outlive the operator. Must be set before Open; worker clones
  /// inherit it.
  void set_verify(const DataflowVerifier* verifier, const PlanNode* node) {
    verify_ = verifier;
    verify_node_ = node;
  }

  /// True when this operator and its whole input pipeline can be cloned into
  /// extra worker instances whose outputs partition the row multiset. Scans
  /// qualify (workers claim disjoint morsels); filters/projections/hash-join
  /// probes delegate to their streamed input; pipeline breakers (sort,
  /// aggregate, merge join) and block-nested-loop joins do not — they stay
  /// serial and parallelize *internally* where profitable.
  virtual bool CanRunMorselParallel() const { return false; }

  /// Clones this pipeline for one extra worker. Only valid after Open, on
  /// the driver thread, on a pipeline where CanRunMorselParallel(); the
  /// clone shares the primary's coordination state, is already open, and
  /// must only be driven via Next (never Open/Close — the primary owns the
  /// shared state's lifecycle).
  virtual OperatorPtr CloneForWorker() { return nullptr; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;
  virtual void CloseImpl() {}

  /// Copies the base-operator state a worker clone shares with its primary
  /// (layout, batch size, runtime, verify hook) and takes the clone's
  /// private stats block from the runtime when the primary is instrumented.
  /// Every CloneForWorker override calls this from the clone's constructor
  /// path.
  void InitWorkerClone(const Operator& primary);

  /// Charges `pages` reads/writes to `io` (when non-null) and mirrors the
  /// charge into the stats sink (when installed), so EXPLAIN ANALYZE can
  /// attribute IO to the operator that incurred it.
  void ChargeRead(IoAccountant* io, int64_t pages);
  void ChargeWrite(IoAccountant* io, int64_t pages);
  /// Counts input rows consumed (no-op without a sink). Called once per
  /// input batch, not per row.
  void CountInput(int64_t rows);

  RowLayout layout_;
  OpStats* stats_ = nullptr;
  int batch_size_ = kDefaultBatchSize;
  std::shared_ptr<ExecRuntime> exec_;
  /// Dataflow self-verification hook; both borrowed, null when off.
  const DataflowVerifier* verify_ = nullptr;
  const PlanNode* verify_node_ = nullptr;
};

/// Drives `primary`'s pipeline with `workers` instances over its shared
/// morsel dispenser: clones the pipeline `workers - 1` times, runs
/// `consume(worker_index, instance)` for every instance on the runtime's
/// pool (instance 0 is the primary), then folds every clone's stats block
/// into its primary's (ExecRuntime::FoldWorkerStats). Falls back to a
/// single serial `consume(0, primary)` when `workers <= 1`, the pipeline is
/// not morsel-parallel, or no runtime is installed — the serial path is
/// byte-for-byte the pre-parallel engine.
///
/// `consume` must drain its instance to end of stream; each instance yields
/// a disjoint share of the pipeline's row multiset. On error, the
/// lowest-indexed worker's status is returned (deterministic across runs).
Status RunMorselParallel(Operator* primary, int workers,
                         const std::function<Status(int, Operator*)>& consume);

/// Workers this operator tree should use for a parallel region: the
/// runtime's thread budget when one is installed and the pipeline supports
/// morsel parallelism, else 1.
int MorselWorkers(const Operator& pipeline);

/// Scans an in-memory table, applying a filter and projecting: each Next
/// copies out one batch-sized slice of qualifying rows. When `charge_io` is
/// set, Open charges one read per table page (a BNL inner scan is created
/// uncharged because the join charges per-pass rescans).
///
/// The scan is the morsel dispenser of a parallel pipeline: Open publishes
/// an atomic cursor over the table's row-id space; every Next claims a
/// morsel (ExecRuntime::morsel_rows row ids) and fills batches from it,
/// claiming again until the batch fills or the table ends. Worker clones
/// share the cursor, so instances scan disjoint row ranges; a single
/// instance claims every morsel in order and is byte-identical to the
/// pre-morsel serial scan.
///
/// Under the compiled backend the same operator is the scan->filter->project
/// kernel: set_compiled_filter swaps the tree-walked scan filter for its
/// bytecode program and may add a residual program (a kFilter node fused
/// onto the scan), both evaluated directly on the table row, so survivors
/// project straight into the output batch with no batch hand-off between
/// the scan and the filter.
class TableScanOp final : public Operator {
 public:
  /// `rowid_col`, when valid, names a synthetic output column materialized
  /// as the scanned row's position (the internal tuple id).
  TableScanOp(const Table* table, RowLayout table_layout,
              std::vector<Predicate> filter, RowLayout output,
              IoAccountant* io, bool charge_io,
              ColId rowid_col = kInvalidColId);

  /// Compiled-backend injection: `scan_filter` replaces the tree-walked
  /// scan filter and `residual` (may be null or empty) is a further
  /// conjunction evaluated on the rows that pass it; both are compiled
  /// against the table layout. Worker clones share the immutable programs.
  void set_compiled_filter(std::shared_ptr<const PredicateProgram> scan_filter,
                           std::shared_ptr<const PredicateProgram> residual) {
    compiled_filter_ = std::move(scan_filter);
    if (residual != nullptr && !residual->empty()) {
      compiled_residual_ = std::move(residual);
    }
  }

  /// Interior stats block for a fused-away kScan node: when the operator is
  /// registered as the kFilter node above the scan, this block receives the
  /// scan node's counters (rows examined, rows passing the scan filter,
  /// pages) and the operator's own block counts rows entering the residual,
  /// so per-node attribution is unchanged by fusion. Must be set before
  /// Open; worker clones count into private blocks folded back into it.
  void set_scan_stats(OpStats* stats) { scan_stats_ = stats; }

  bool CanRunMorselParallel() const override { return true; }
  OperatorPtr CloneForWorker() override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  static constexpr int kRowIdIndex = -2;

  /// The shared morsel cursor: workers fetch-add to claim disjoint row-id
  /// ranges of `morsel_rows` rows each.
  struct MorselDispenser {
    std::atomic<int64_t> next AGGVIEW_LOCK_FREE("atomic fetch-add claim"){0};
    int64_t morsel_rows = kDefaultMorselRows;
  };

  struct WorkerCloneTag {};
  TableScanOp(const TableScanOp& primary, WorkerCloneTag);

  const Table* table_;
  RowLayout table_layout_;
  std::vector<Predicate> filter_;
  std::shared_ptr<const PredicateProgram> compiled_filter_;
  std::shared_ptr<const PredicateProgram> compiled_residual_;
  EvalScratch scratch_;
  std::vector<int> projection_;  // table-layout indices per output column
  IoAccountant* io_;
  bool charge_io_;
  OpStats* scan_stats_ = nullptr;
  std::shared_ptr<MorselDispenser> morsels_;
  int64_t pos_ = 0;      // next row id within the claimed morsel
  int64_t pos_end_ = 0;  // end of the claimed morsel
};

/// Applies residual predicates in place: the child fills the caller's batch
/// directly, survivors are compacted to the front (O(1) row-buffer swaps),
/// and the batch is truncated. No intermediate batch, no row copies; layout
/// passes through. Mid-stream batches may be partially full but never empty
/// (fully-filtered input batches are skipped).
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<Predicate> preds);

  /// Compiled-backend injection: when set, the conjunction evaluates via the
  /// bytecode program (compiled against this operator's layout) instead of
  /// tree-walking preds_ — identical results, no per-row virtual calls.
  /// Worker clones share the immutable program.
  void set_compiled_preds(std::shared_ptr<const PredicateProgram> program) {
    compiled_preds_ = std::move(program);
  }

  bool CanRunMorselParallel() const override {
    return child_->CanRunMorselParallel();
  }
  OperatorPtr CloneForWorker() override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  FilterOp(const FilterOp& primary, OperatorPtr child);

  OperatorPtr child_;
  std::vector<Predicate> preds_;
  std::shared_ptr<const PredicateProgram> compiled_preds_;
  EvalScratch scratch_;
};

/// Projects the child's output to a (sub)set of its columns, reordering.
/// Rewrites the caller's batch in place: each row is rebuilt in a reused
/// scratch buffer and swapped in (O(1)), so projection adds no intermediate
/// batch and no per-row allocation in steady state.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, RowLayout output);

  bool CanRunMorselParallel() const override {
    return child_->CanRunMorselParallel();
  }
  OperatorPtr CloneForWorker() override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  ProjectOp(const ProjectOp& primary, OperatorPtr child);

  OperatorPtr child_;
  std::vector<int> projection_;
  Row scratch_;
};

/// In-memory hash join (Grace accounting when either side spills): builds on
/// the right input, probes with a batch of left rows per dispatch. Equi-join
/// keys are column pairs; `residual` predicates are evaluated on the
/// concatenated row. Rows with a NULL in any join key never match (SQL
/// equality semantics); in outer mode a NULL-keyed probe row still survives
/// as a padded row.
///
/// Parallel build: when the runtime grants threads and the build side is
/// morsel-parallel, Open drains it with worker pipelines into thread-local
/// (hash, row) spools, then partitions them into `threads` hash tables by
/// hash modulus — each partition built by one worker, touching disjoint
/// rows. Probing (serial or parallel) looks up h % partitions first. With
/// one partition the layout and probe order are the serial engine's.
///
/// Parallel probe: the probe side is the streamed input, so the join itself
/// clones for morsel parallelism; clones share the built partitions
/// read-only. The Grace/IO charge fires once, from whichever instance
/// reaches end of stream last, on the probe rows every instance added to the
/// shared build table — identical to the serial charge, where the lone
/// instance is also the last.
class HashJoinOp final : public Operator {
 public:
  /// `left_outer` preserves unmatched probe rows, padding the build side's
  /// columns with NULLs.
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<std::pair<ColId, ColId>> keys,
             std::vector<Predicate> residual, const ColumnCatalog* columns,
             IoAccountant* io, bool left_outer = false);

  /// Compiled-backend injection for the residual conjunction (compiled
  /// against the concatenated left|right layout). Worker clones share it.
  void set_compiled_residual(std::shared_ptr<const PredicateProgram> program) {
    compiled_residual_ = std::move(program);
  }

  bool CanRunMorselParallel() const override {
    return left_->CanRunMorselParallel();
  }
  OperatorPtr CloneForWorker() override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  /// The state every probe instance shares. `parts` is the build side,
  /// hash-partitioned: parts.size() is 1 in serial builds and the worker
  /// count in parallel builds; a key with hash h lives in
  /// parts[h % parts.size()]. `build_pages` are the pages of every drained
  /// build row (NULL-keyed ones included). Both are immutable once built
  /// (read-only for probes). `live_probes` counts the probe instances that
  /// have not reached end of stream (the primary, plus one per
  /// CloneForWorker); `probe_rows` sums the probe rows of those that have.
  struct BuildTable {
    std::vector<std::unordered_multimap<size_t, Row>> parts;
    double build_pages = 0.0;
    std::atomic<int> live_probes AGGVIEW_LOCK_FREE(
        "seq_cst decrement; the instance that takes it to zero charges"){1};
    std::atomic<int64_t> probe_rows AGGVIEW_LOCK_FREE(
        "seq_cst add, before the adding instance's live_probes decrement"){0};
    int64_t rows() const {
      int64_t n = 0;
      for (const auto& p : parts) n += static_cast<int64_t>(p.size());
      return n;
    }
  };

  HashJoinOp(const HashJoinOp& primary, OperatorPtr left);
  Status BuildSerial();
  Status BuildParallel(int workers);
  /// Adds this instance's probe rows to the shared total, once; the last
  /// instance out charges.
  void FinishProbe();
  void ChargeAtProbeEos(int64_t probe_rows);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<std::pair<ColId, ColId>> keys_;
  std::vector<Predicate> residual_;
  std::shared_ptr<const PredicateProgram> compiled_residual_;
  EvalScratch scratch_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  std::shared_ptr<BuildTable> build_ AGGVIEW_LOCK_FREE(
      "parts written only inside BuildParallel's ParallelFor (disjoint "
      "partitions); the barrier publishes them, immutable once shared with "
      "probe clones; the probe counters are atomics");
  int64_t right_rows_ = 0;
  int64_t left_rows_ = 0;  // this instance's probe rows
  // Probe state: the current input batch and the row of it being matched
  // (a pointer into probe_, stable until the next batch is pulled).
  RowBatch probe_{1};
  int probe_pos_ = 0;
  const Row* current_left_ = nullptr;
  std::vector<const Row*> matches_;
  size_t match_pos_ = 0;
  bool probe_done_ = false;  // this instance reached end of stream
  bool left_outer_ = false;
  bool emitted_for_left_ = false;
  bool padded_for_left_ = false;
};

/// Block-nested-loop join: materializes the inner (right) input, then one
/// pass over it per block of outer pages. `inner_pages_per_pass` overrides
/// the page count charged per pass (the base table's full page count when
/// the inner is a bare table scan); pass 0 to derive it from the
/// materialized rows. `charge_materialize` adds the one-time write of the
/// materialized inner. Runs serial (not morsel-parallel): its per-pass IO
/// accounting is block-order-dependent, and plans route large probe sides
/// to the hash join.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                   std::vector<Predicate> preds, const ColumnCatalog* columns,
                   IoAccountant* io, double inner_pages_per_pass,
                   bool charge_materialize, bool left_outer = false);

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Predicate> preds_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;
  double inner_pages_per_pass_;
  bool charge_materialize_;

  std::vector<Row> inner_;
  RowBatch outer_{1};
  int outer_pos_ = 0;
  const Row* current_left_ = nullptr;
  size_t inner_pos_ = 0;
  int64_t left_rows_ = 0;
  bool charged_ = false;

  // CPU fast path: when some conjuncts are equi-joins, the materialized
  // inner is hash-indexed on those columns so each outer row probes a
  // bucket instead of the whole inner. Purely an in-memory matter — the
  // charged IO is the block-nested-loop formula either way. NULL keys
  // never probe (matching the predicate-eval semantics of the slow path).
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  std::vector<Predicate> residual_;
  std::unordered_multimap<size_t, size_t> index_;  // key hash -> inner row
  std::vector<size_t> probe_matches_;
  size_t probe_pos_ = 0;
  bool use_index_ = false;
  bool left_outer_ = false;
  bool emitted_for_left_ = false;
  bool padded_for_left_ = false;
};

/// Sort-merge join over equi-join keys (plus residual predicates).
/// Materializes and sorts both inputs at Open, charging external-sort IO on
/// actual sizes; Next emits one batch of the merge output per call. NULL
/// join keys sort first and are skipped by the merge, so they never match
/// (SQL equality semantics). A pipeline breaker on both sides; runs serial
/// so sort tie-breaking (and hence emission order) matches the serial
/// engine exactly.
class SortMergeJoinOp final : public Operator {
 public:
  SortMergeJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<std::pair<ColId, ColId>> keys,
                  std::vector<Predicate> residual,
                  const ColumnCatalog* columns, IoAccountant* io);

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<std::pair<ColId, ColId>> keys_;
  std::vector<Predicate> residual_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  std::vector<Row> lrows_;
  std::vector<Row> rrows_;
  size_t li_ = 0, ri_ = 0;
  // Current key-equal block being emitted.
  size_t block_l_ = 0, block_l_end_ = 0, block_r_begin_ = 0, block_r_end_ = 0;
  size_t block_r_ = 0;
  bool in_block_ = false;
};

/// Final ORDER BY: materializes its input at Open, sorts by the keys, and
/// charges external-sort IO on the actual size. Next copies out one sorted
/// slice per call. A pipeline breaker; the input drain stays serial so
/// stable_sort sees the serial arrival order and equal-key rows keep their
/// deterministic order.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<OrderKey> keys,
         const ColumnCatalog* columns, IoAccountant* io);

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<OrderKey> keys_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;
  std::vector<int> key_idx_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Hash aggregation implementing a GroupBySpec: grouping, aggregate
/// accumulators, HAVING. Consumes its child at Open, accumulating a whole
/// input batch per pull. A scalar aggregate (empty grouping) over zero input
/// rows produces exactly one row, with COUNT = 0 and SUM/MIN/MAX/AVG = NULL
/// (SQL semantics). The one group-by operator of both backends: under the
/// compiled backend only the child's filters and the HAVING conjunction run
/// as bytecode.
///
/// Grouping on exactly one column starts on an INT64 lane: an int64-keyed
/// map plus one NULL group, with no key Row built per input row. The first
/// non-integer, non-NULL key migrates the lane into the generic Row-keyed
/// map, where Value's cross-type numeric equality keeps 3 and 3.0 in one
/// group, so grouping semantics never depend on the lane.
///
/// The pipeline breaker of parallel plans: when the runtime grants threads
/// and the child pipeline is morsel-parallel, Open drains it with worker
/// pipelines into *thread-local* group tables (no shared mutable state on
/// the hot path), then merges the partial tables in worker order on the
/// driver — partial accumulators of the same group fold together with
/// AggAccumulator::Merge, the execution-time form of the decomposable-
/// aggregate combines (COUNT partials merge with kCountSum's empty-is-0
/// semantics; MEDIAN merges exactly by sample concatenation). Partials may
/// sit in different lanes; if any worker migrated, every partial migrates
/// before the merge. The spill charge is computed on the summed input
/// cardinality, identical to serial.
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, GroupBySpec spec,
                  const ColumnCatalog* columns, IoAccountant* io);

  /// Compiled-backend injection for the HAVING conjunction (compiled against
  /// the output layout: grouping columns + aggregate outputs).
  void set_compiled_having(std::shared_ptr<const PredicateProgram> program) {
    compiled_having_ = std::move(program);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct Group {
    std::vector<AggAccumulator> accs;
  };
  using GroupMap = std::unordered_map<Row, Group, RowHash, RowEq>;

  /// One group table: the serial run's, or one worker's partial. While
  /// `int_lane` holds, groups live in `ints` and `null_group`; afterwards
  /// (and from the start unless there is exactly one grouping column) they
  /// live in `rows`.
  struct GroupTable {
    bool int_lane = false;
    std::unordered_map<int64_t, Group> ints;
    std::optional<Group> null_group;
    GroupMap rows;

    /// Re-keys every lane group as the one-column Row the generic map would
    /// have built for its input rows (Int(k), or NULL) and leaves the lane.
    void MigrateToGeneric();
    int64_t size() const;
  };

  Group NewGroup() const;
  /// The group of input row `row`, created empty on first sight; may migrate
  /// the table off the INT64 lane. `key` is reusable scratch.
  Group& FindGroup(const Row& row, const std::vector<int>& group_idx,
                   GroupTable* table, Row* key) const;
  /// Drains `src` into `table`, accumulating every row; adds the consumed
  /// row count to `input_rows`. Runs once serially or once per worker.
  Status Accumulate(Operator* src, const std::vector<int>& group_idx,
                    const std::vector<std::vector<int>>& arg_idx,
                    GroupTable* table, int64_t* input_rows);
  /// Folds worker partials 1..n-1 into partials[0], in worker order.
  static void MergePartials(std::vector<GroupTable>* partials);

  OperatorPtr child_;
  GroupBySpec spec_;
  std::shared_ptr<const PredicateProgram> compiled_having_;
  EvalScratch scratch_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;

  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace aggview

#endif  // AGGVIEW_EXEC_OPERATORS_H_
