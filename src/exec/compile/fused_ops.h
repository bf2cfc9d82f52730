#ifndef AGGVIEW_EXEC_COMPILE_FUSED_OPS_H_
#define AGGVIEW_EXEC_COMPILE_FUSED_OPS_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/query.h"
#include "common/result.h"
#include "exec/compile/expr_compiler.h"
#include "exec/operators.h"
#include "expr/aggregate.h"
#include "exec/row_batch.h"
#include "storage/io_accountant.h"
#include "storage/table.h"

namespace aggview {

/// The compiled backend's scan->filter->aggregate kernel: one serial loop
/// reads table rows, evaluates the compiled scan and residual filters, and
/// accumulates qualifying rows straight into the group table — no scan
/// batch, no key-row rebuild per input row. Grouping with exactly one key
/// column runs on an INT64 fast lane (an identity-hashed int64 map); the
/// first non-integer non-NULL runtime key migrates every group into the
/// generic Row-keyed table and continues there, so grouping semantics
/// (including cross-type 3 == 3.0 key equality and NULLs grouping together)
/// are exactly the interpreter's.
///
/// Aggregate state is the interpreter's own AggAccumulator, HAVING runs as a
/// compiled program over the output row, and the Open-time scan page charge
/// plus the hash-aggregate spill formula are applied at the same points with
/// the same operands as the interpreted pipeline — results and charged IO
/// are byte-identical. Serial only: lowering picks this kernel when the
/// execution is single-threaded and falls back to HashAggregateOp over a
/// fused scan otherwise.
class CompiledAggregateOp final : public Operator {
 public:
  struct Spec {
    const Table* table = nullptr;
    RowLayout table_layout;
    /// Both evaluated on the raw table row; either may be empty.
    std::shared_ptr<const PredicateProgram> scan_filter;
    std::shared_ptr<const PredicateProgram> filter;
    /// Evaluated on the output row (grouping columns + aggregate outputs).
    std::shared_ptr<const PredicateProgram> having;
    GroupBySpec group_by;
    /// Table-layout index per grouping column / per aggregate argument.
    std::vector<int> group_idx;
    std::vector<std::vector<int>> arg_idx;
    /// Row width (bytes) of the aggregate's input layout in the interpreted
    /// pipeline (the fused-away child's output layout) — the spill charge
    /// must be computed on the same operand.
    int64_t input_row_width = 0;
    bool charge_scan = true;
  };

  CompiledAggregateOp(Spec spec, const ColumnCatalog* columns,
                      IoAccountant* io);

  /// Interior stats blocks for the fused-away kScan / kFilter nodes (either
  /// may stay null when the plan shape lacks the node or runs unobserved).
  void set_scan_stats(OpStats* stats) { scan_stats_ = stats; }
  void set_filter_stats(OpStats* stats) { filter_stats_ = stats; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct Group {
    std::vector<AggAccumulator> accs;
  };
  using GroupMap = std::unordered_map<Row, Group, RowHash, RowEq>;
  /// INT64 key fast lane. std::hash<int64_t> avoids the generic path's
  /// double-normalizing Value::Hash plus FNV fold per row.
  using IntGroupMap = std::unordered_map<int64_t, Group>;

  Group MakeGroup() const;
  void MigrateToGeneric(IntGroupMap* fast, std::optional<Group>* null_group,
                        GroupMap* generic) const;

  Spec spec_;
  const ColumnCatalog* columns_;
  IoAccountant* io_;
  OpStats* scan_stats_ = nullptr;
  OpStats* filter_stats_ = nullptr;
  EvalScratch scratch_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace aggview

#endif  // AGGVIEW_EXEC_COMPILE_FUSED_OPS_H_
