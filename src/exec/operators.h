#ifndef AGGVIEW_EXEC_OPERATORS_H_
#define AGGVIEW_EXEC_OPERATORS_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "algebra/query.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/exec_context.h"
#include "exec/row_batch.h"
#include "expr/bound_expr.h"
#include "storage/io_accountant.h"
#include "storage/table.h"

namespace aggview {

struct OpStats;
struct PlanNode;
class DataflowVerifier;
class Operator;
using OperatorPtr = std::unique_ptr<Operator>;

/// Batch-at-a-time physical operator: Open / Next(RowBatch*) / Close.
/// Operators evaluate predicates in bound form (expr/bound_expr.h): Open
/// binds each conjunction once against the operator's own layout, so the
/// per-row path does no layout lookup; a conjunct naming a column the layout
/// lacks fails Open with a Status instead of evaluating garbage.
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
/// the clones share with their primary — the scan's morsel dispenser, a
/// join's held table (which also sums the streamed rows and fires the
/// join's IO charge when the last instance reaches end of stream) — so the
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
  /// qualify (workers claim disjoint morsels); filters, projections and the
  /// join delegate to their streamed input; pipeline breakers (sort,
  /// aggregate) do not — they stay serial and parallelize *internally*
  /// where profitable.
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
/// The filter is evaluated on the table's columns in place (ColumnCells), so
/// a rejected row is never copied and a survivor copies only its projected
/// cells (and the row id) into the output batch.
class TableScanOp final : public Operator {
 public:
  /// `rowid_col`, when valid, names a synthetic output column materialized
  /// as the scanned row's position (the internal tuple id). `columns` types
  /// the filter's comparison lanes and must outlive the operator.
  TableScanOp(const Table* table, RowLayout table_layout,
              std::vector<Predicate> filter, RowLayout output,
              const ColumnCatalog* columns, IoAccountant* io, bool charge_io,
              ColId rowid_col = kInvalidColId);

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
  BoundConjunction bound_filter_;  // filter_ against table_layout_, at Open
  const ColumnCatalog* columns_;
  std::vector<int> projection_;  // table-layout indices per output column
  /// Base pointer of each table-layout slot's column, taken at Open.
  std::vector<const Value*> columns_base_;
  IoAccountant* io_;
  bool charge_io_;
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
  FilterOp(OperatorPtr child, std::vector<Predicate> preds,
           const ColumnCatalog* columns);

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
  BoundConjunction bound_preds_;
  const ColumnCatalog* columns_;
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

/// The join operator: one build/probe engine runs both of the optimizer's
/// join algorithms, which differ only in the IO formula charged
/// (JoinCharge). One input is *held*: drained once at Open into a hash table
/// keyed on the equi-join conjuncts (SplitJoinPredicates). The other is
/// *streamed*: each streamed row looks up the held rows with its key hash,
/// and each candidate is kept when the keys are equal and the residual
/// holds on the concatenated left ++ right row, so the output layout does
/// not depend on which side is held. With no equi-join conjunct every held
/// row is a candidate; a hash-charged join without one fails at Open. Rows
/// with a NULL in any join key never match (SQL equality semantics); in
/// outer mode a NULL-keyed streamed row still survives as a padded row.
/// Outer mode always streams the left input.
///
/// The held table and its build are HashAggregateOp's (flat index, key hash,
/// radix partitions, per-partition merge appending workers 1..W-1 into
/// worker 0). The index holds each distinct key hash once and a chain links
/// the held rows of a hash newest first, so a probe emits a key's rows in
/// reverse arrival order. Chains are by hash, not key, because Value
/// equality is not transitive across INT64 and DOUBLE past 2^53.
///
/// Parallel probe: the join clones for morsel parallelism whenever its
/// streamed input can; clones share the held table read-only. The IO charge
/// fires once, from whichever instance reaches end of stream last, on the
/// streamed rows every instance added to the shared table — identical to the
/// serial charge, where the lone instance is also the last.
///
/// EXPLAIN ANALYZE: `build=` counts the held rows the table keeps and
/// `probes=` the streamed rows that looked it up (a NULL-keyed row does
/// not); `rows_in` counts every row drained from either input.
class JoinOp final : public Operator {
 public:
  /// The IO formula charged at end of stream, on actual sizes.
  struct JoinCharge {
    /// False: the hash join's (one read of each input, plus Grace
    /// partition spills when the smaller input exceeds the buffer pool).
    /// True: the block-nested-loop join's (outer pages plus one inner pass
    /// per block of outer pages), whichever input is held.
    bool block_nested_loop = false;
    /// BNL: the inner pages charged per pass (the base table's full page
    /// count when the inner is a bare table scan); 0 derives them from the
    /// inner's rows.
    double inner_pages_per_pass = 0.0;
    /// BNL: adds the one-time write of the materialized inner.
    bool materialize_inner = false;
  };

  /// `preds` is the join's whole conjunction. `left_outer` preserves
  /// unmatched left rows, padding the right input's columns with NULLs.
  /// `hold_left` holds the left input and streams the right; it is ignored
  /// in outer mode.
  JoinOp(OperatorPtr left, OperatorPtr right, std::vector<Predicate> preds,
         const ColumnCatalog* columns, IoAccountant* io, JoinCharge charge,
         bool left_outer = false, bool hold_left = false);

  bool CanRunMorselParallel() const override {
    return streamed()->CanRunMorselParallel();
  }
  OperatorPtr CloneForWorker() override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct HeldPart;
  struct HeldTable;

  JoinOp(const JoinOp& primary, OperatorPtr streamed);
  Operator* held() const { return hold_left_ ? left_.get() : right_.get(); }
  Operator* streamed() const {
    return hold_left_ ? right_.get() : left_.get();
  }
  const std::vector<int>& held_key_idx() const {
    return hold_left_ ? left_key_idx_ : right_key_idx_;
  }
  const std::vector<int>& streamed_key_idx() const {
    return hold_left_ ? right_key_idx_ : left_key_idx_;
  }
  Status Build();
  /// Adds this instance's streamed rows to the shared total, once; the last
  /// instance out charges.
  void FinishProbe();
  void ChargeAtProbeEos(int64_t streamed_rows);

  OperatorPtr left_;
  OperatorPtr right_;  // a clone keeps only its streamed side
  bool left_outer_;
  bool hold_left_;
  JoinCharge charge_;
  std::vector<Predicate> residual_;
  BoundConjunction bound_residual_;  // against the concatenated layout
  const ColumnCatalog* columns_;
  IoAccountant* io_;
  int64_t left_width_ = 0;
  int64_t right_width_ = 0;

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  std::shared_ptr<HeldTable> held_ AGGVIEW_LOCK_FREE(
      "built at Open by the primary, before any clone exists; immutable "
      "once shared with streaming clones; the probe counters are atomics");
  int64_t streamed_rows_ = 0;  // this instance's streamed rows
  // Probe state: the current streamed batch, the row of it being matched
  // (stable until the next batch is pulled), and its chain's next held row.
  RowBatch probe_{1};
  int probe_pos_ = 0;
  const Row* current_ = nullptr;
  const HeldPart* match_part_ = nullptr;
  int32_t match_ = -1;
  bool probe_done_ = false;  // this instance reached end of stream
  bool emitted_for_current_ = false;
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
/// input batch per pull. A scalar aggregate (empty grouping) has exactly one
/// group, created up front and found without a hash lookup, so over zero
/// input rows it produces one row with COUNT = 0 and SUM/MIN/MAX/AVG = NULL
/// (SQL semantics). HAVING is bound against the output layout (grouping
/// columns + aggregate outputs).
///
/// Groups live in flat tables (JoinOp's held table is one too): an index
/// from key hash to a dense group number, a parallel key column, and one
/// arena holding each group's accumulators consecutively. Grouping on
/// exactly one column starts on an INT64 lane, whose keys are int64_t (plus
/// one NULL group). The first non-integer, non-NULL key migrates the lane to
/// the generic lane, which hashes and compares the key cells in place and
/// copies them only for a new group; Value's cross-type numeric equality
/// keeps 3 and 3.0 in one group, so grouping never depends on the lane.
///
/// The pipeline breaker of parallel plans: when the runtime grants W > 1
/// threads and the child pipeline is morsel-parallel, Open drains it with
/// worker pipelines into thread-local tables, each split into radix
/// partitions by the high bits of the key hash (no shared mutable state on
/// the hot path). One ParallelFor over the partitions then merges each
/// partition independently, folding workers 1..W-1 into worker 0 in worker
/// order with AggAccumulator::Merge (the execution-time form of the
/// decomposable-aggregate combines; MEDIAN merges exactly by sample
/// concatenation), and finalizes it with Finish and HAVING. A group's merge
/// order is thus fixed by worker index alone. If any worker migrated off the
/// INT64 lane, every worker migrates (re-partitioning by the generic hash)
/// before the merge. Output is in first-seen group order when serial and in
/// partition order when parallel. The spill charge is computed on the summed
/// input cardinality, identical to serial.
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, GroupBySpec spec,
                  const ColumnCatalog* columns, IoAccountant* io);

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct GroupTable;
  struct WorkerGroups;

  /// Empty groups for one worker (or the serial run) split into `parts`
  /// partitions; a scalar aggregate's one group is created here.
  WorkerGroups NewWorkerGroups(size_t parts) const;
  /// Appends the fresh accumulators of new group `g` of `table`; returns
  /// them.
  AggAccumulator* NewGroup(GroupTable* table, int32_t g) const;
  /// The accumulators of `row`'s group, created empty on first sight.
  /// GroupOf finds an existing group of an INT64 key on the INT64 lane and
  /// leaves the rest (a new group, the NULL key, migrating the lane, the
  /// generic lane) to OtherGroupOf.
  AggAccumulator* GroupOf(const Row& row, WorkerGroups* groups) const;
  AggAccumulator* OtherGroupOf(const Row& row, WorkerGroups* groups) const;
  /// Drains `src` into `groups`, accumulating every row; adds the consumed
  /// row count to `input_rows`. Runs once serially or once per worker.
  Status Accumulate(Operator* src, WorkerGroups* groups,
                    int64_t* input_rows) const;
  /// Folds partition `part` of every worker into worker 0's, in worker
  /// order, then emits its groups that pass `having` into `out`. Partitions
  /// are disjoint, so partition tasks run concurrently.
  void MergeAndFinish(std::vector<WorkerGroups>* workers, size_t part,
                      const BoundConjunction& having,
                      std::vector<Row>* out) const;

  OperatorPtr child_;
  GroupBySpec spec_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;
  /// One aggregate's argument columns in the input: Add0, Add1 or Add2.
  struct AggArgs {
    int arity = 0;
    std::array<int, 2> idx = {0, 0};
  };
  std::vector<int> group_idx_;  // grouping columns in the input
  std::vector<AggArgs> args_;   // per aggregate
  size_t n_aggs_ = 0;           // accumulators per group

  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace aggview

#endif  // AGGVIEW_EXEC_OPERATORS_H_
