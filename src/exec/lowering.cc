#include "exec/lowering.h"

#include <utility>

#include "obs/runtime_stats.h"

namespace aggview {

namespace {

/// Everything lowering threads through the recursion: the query, the IO
/// sink, the (optional) stats collector, and the execution options every
/// operator is configured with.
struct LowerCtx {
  const Query& query;
  IoAccountant* io;
  RuntimeStatsCollector* stats;
  ExecContext exec;
  /// Shared by every operator of this execution; carries the thread budget,
  /// morsel geometry and (lazily) the worker pool for parallel regions.
  std::shared_ptr<ExecRuntime> runtime;
};

/// Registers `op` as (part of) the lowering of `plan`, installs its stats
/// block, and configures its batch size. Operators are tagged bottom-up, so
/// the last tag for a plan node is its topmost operator (whose output is the
/// node's output).
OperatorPtr Tag(OperatorPtr op, const PlanPtr& plan, const char* name,
                const LowerCtx& ctx) {
  op->set_batch_size(ctx.exec.batch_size);
  op->set_exec(ctx.runtime);
  if (ctx.stats != nullptr) {
    op->set_stats(ctx.stats->Register(plan.get(), name));
  }
  if (ctx.exec.verify != nullptr) op->set_verify(ctx.exec.verify, plan.get());
  return op;
}

Result<OperatorPtr> Lower(const PlanPtr& plan, const LowerCtx& ctx,
                          bool charge_scan);

Result<OperatorPtr> LowerScan(const PlanPtr& plan, const LowerCtx& ctx,
                              bool charge_scan) {
  const RangeVar& rv = ctx.query.range_var(plan->rel_id);
  const TableDef& def = ctx.query.catalog().table(rv.table);
  if (def.data == nullptr) {
    return Status::ExecutionError("table '" + def.name + "' has no data loaded");
  }
  auto scan = std::make_unique<TableScanOp>(
      def.data.get(), RowLayout(rv.columns), plan->scan_filter, plan->output,
      &ctx.query.columns(), ctx.io, charge_scan, rv.rowid);
  return Tag(std::move(scan), plan, "TableScan", ctx);
}

Result<OperatorPtr> LowerJoin(const PlanPtr& plan, const LowerCtx& ctx) {
  // Mirror the costing convention of PlanBuilder::Join: a BNL over a bare
  // base-table scan charges per-pass rescans of the full table instead of a
  // one-time scan plus materialization.
  bool inner_is_bare_scan = plan->right->kind == PlanNode::Kind::kScan &&
                            plan->right->scan_filter.empty() &&
                            plan->algo == JoinAlgo::kBlockNestedLoop;

  AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr left,
                           Lower(plan->left, ctx, /*charge_scan=*/true));
  AGGVIEW_ASSIGN_OR_RETURN(
      OperatorPtr right,
      Lower(plan->right, ctx, /*charge_scan=*/!inner_is_bare_scan));

  JoinOp::JoinCharge charge;
  bool hold_left = false;
  if (plan->algo == JoinAlgo::kBlockNestedLoop) {
    charge.block_nested_loop = true;
    charge.materialize_inner = !inner_is_bare_scan;
    if (inner_is_bare_scan) {
      const RangeVar& rv = ctx.query.range_var(plan->right->rel_id);
      const TableDef& def = ctx.query.catalog().table(rv.table);
      charge.inner_pages_per_pass =
          def.data != nullptr
              ? static_cast<double>(def.data->page_count())
              : static_cast<double>(PagesForRows(def.stats.row_count,
                                                 def.schema.RowWidth()));
    }
    // Hold the side with fewer estimated pages (ties: the outer) and stream
    // the other (outer mode holds the inner regardless). The choice reads
    // only the plan, so every thread count makes it alike.
    hold_left = plan->left->OutputPages() <= plan->right->OutputPages();
  }
  OperatorPtr join = std::make_unique<JoinOp>(
      std::move(left), std::move(right), plan->join_preds,
      &ctx.query.columns(), ctx.io, charge, plan->left_outer, hold_left);
  join = Tag(std::move(join), plan,
             charge.block_nested_loop ? "NestedLoopJoin" : "HashJoin", ctx);
  // Project the concatenated row down to the plan's output layout.
  if (join->layout().columns() != plan->output.columns()) {
    join = Tag(std::make_unique<ProjectOp>(std::move(join), plan->output),
               plan, "Project", ctx);
  }
  return join;
}

Result<OperatorPtr> Lower(const PlanPtr& plan, const LowerCtx& ctx,
                          bool charge_scan) {
  switch (plan->kind) {
    case PlanNode::Kind::kScan:
      return LowerScan(plan, ctx, charge_scan);
    case PlanNode::Kind::kFilter: {
      AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr child,
                               Lower(plan->left, ctx, true));
      OperatorPtr op = std::move(child);
      if (!plan->filter_preds.empty()) {
        op = Tag(std::make_unique<FilterOp>(std::move(op), plan->filter_preds,
                                            &ctx.query.columns()),
                 plan, "Filter", ctx);
      }
      if (op->layout().columns() != plan->output.columns()) {
        op = Tag(std::make_unique<ProjectOp>(std::move(op), plan->output),
                 plan, "Project", ctx);
      }
      return op;
    }
    case PlanNode::Kind::kJoin:
      return LowerJoin(plan, ctx);
    case PlanNode::Kind::kGroupBy: {
      AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr child,
                               Lower(plan->left, ctx, true));
      OperatorPtr op = Tag(std::make_unique<HashAggregateOp>(
                               std::move(child), plan->group_by,
                               &ctx.query.columns(), ctx.io),
                           plan, "HashAggregate", ctx);
      if (op->layout().columns() != plan->output.columns()) {
        op = Tag(std::make_unique<ProjectOp>(std::move(op), plan->output),
                 plan, "Project", ctx);
      }
      return op;
    }
    case PlanNode::Kind::kSort: {
      AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr child,
                               Lower(plan->left, ctx, true));
      OperatorPtr op = Tag(std::make_unique<SortOp>(std::move(child),
                                                    plan->sort_keys,
                                                    &ctx.query.columns(),
                                                    ctx.io),
                           plan, "Sort", ctx);
      return op;
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<OperatorPtr> LowerPlan(const PlanPtr& plan, const Query& query,
                              const ExecContext& ctx) {
  LowerCtx lctx{query, ctx.io, ctx.stats, ctx,
                std::make_shared<ExecRuntime>(ctx.threads, ctx.morsel_rows,
                                              ctx.pool)};
  return Lower(plan, lctx, /*charge_scan=*/true);
}

}  // namespace aggview
