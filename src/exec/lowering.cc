#include "exec/lowering.h"

#include <algorithm>
#include <utility>

#include "analysis/certificate.h"
#include "exec/compile/expr_compiler.h"
#include "exec/compile/verifier.h"
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

/// Splits join predicates into equi-join key pairs (left col, right col) and
/// residual conjuncts.
void SplitJoinPredicates(const std::vector<Predicate>& preds,
                         const RowLayout& left, const RowLayout& right,
                         std::vector<std::pair<ColId, ColId>>* keys,
                         std::vector<Predicate>* residual) {
  for (const Predicate& p : preds) {
    ColId a, b;
    if (p.AsColumnEquality(&a, &b)) {
      if (left.Contains(a) && right.Contains(b)) {
        keys->emplace_back(a, b);
        continue;
      }
      if (left.Contains(b) && right.Contains(a)) {
        keys->emplace_back(b, a);
        continue;
      }
    }
    residual->push_back(p);
  }
}

/// Registers `op` as (part of) the lowering of `plan`, installs its stats
/// block, and configures its batch size. Operators are tagged bottom-up, so
/// the last tag for a plan node is its topmost operator (whose output is the
/// node's output).
///
/// `backend_label` feeds EXPLAIN ANALYZE's backend column: under the
/// compiled backend every operator is attributed either "compiled"
/// (predicate/expression work running on bytecode) or "interpret" (runs no
/// bytecode). Under the interpreting backend the label stays empty and
/// EXPLAIN output is unchanged.
/// `fallback` is the short token EXPLAIN ANALYZE renders as `fallback=` for
/// operators that stayed interpreted although the compiled backend was
/// requested; callers pass it only together with a null `backend_label`.
OperatorPtr Tag(OperatorPtr op, const PlanPtr& plan, const char* name,
                const LowerCtx& ctx, const char* backend_label = nullptr,
                const char* fallback = nullptr) {
  op->set_batch_size(ctx.exec.batch_size);
  op->set_exec(ctx.runtime);
  if (ctx.stats != nullptr) {
    OpStats* stats = ctx.stats->Register(plan.get(), name);
    if (ctx.exec.backend == ExecBackend::kCompiled) {
      stats->backend = backend_label != nullptr ? backend_label : "interpret";
      if (fallback != nullptr) stats->fallback = fallback;
    }
    op->set_stats(stats);
  }
  if (ctx.exec.verify != nullptr) op->set_verify(ctx.exec.verify, plan.get());
  return op;
}

bool UseCompiled(const LowerCtx& ctx) {
  return ctx.exec.backend == ExecBackend::kCompiled;
}

/// One predicate-compilation attempt under the compiled backend. `prog` is
/// null when the attempt declined — either the conjunction does not compile
/// (a conjunct references a column the layout lacks, e.g. a synthetic rowid
/// column) or the bytecode verifier rejected the compiled program; the
/// caller then keeps the interpreted evaluation path and tags the operator
/// with `fallback`. The verification certificate is carried here until the
/// caller Commit()s it, so an abandoned fusion attempt leaves no stray
/// certificates in the sink.
struct PredCompile {
  std::shared_ptr<const PredicateProgram> prog;
  const char* fallback = nullptr;
  bool has_cert = false;
  CompilationCertificate cert;
};

/// Compiles `preds` against `layout` and — unless ctx.exec.bytecode_verify
/// is kOff — runs the bytecode verifier on the result before it is allowed
/// to execute. A rejected program is never returned: the certificate records
/// the instruction-indexed rejection and the caller falls back to the
/// interpreter (never a crash). The test-only tamper hook corrupts the
/// program between compilation and verification, so tests can prove the
/// rejection path end to end.
PredCompile CompileAndVerify(const std::vector<Predicate>& preds,
                             const RowLayout& layout, const LowerCtx& ctx,
                             const char* node, const char* kind) {
  PredCompile out;
  Result<PredicateProgram> compiled =
      PredicateProgram::Compile(preds, layout, ctx.query.columns());
  if (!compiled.ok()) {
    out.fallback = "predicate-shape";
    return out;
  }
  PredicateProgram prog = std::move(*compiled);
  if (BytecodeTamperHookForTesting()) {
    prog = BytecodeTamperHookForTesting()(prog);
  }
  if (ctx.exec.bytecode_verify != BytecodeVerifyMode::kOff) {
    // Listings are rendered only when a certificate sink will record them;
    // the verdict itself never depends on them.
    out.cert = VerifyPredicateProgram(
        prog, preds, layout, ctx.query.columns(), ctx.exec.bytecode_verify,
        node, kind, /*want_listing=*/ctx.exec.compilations != nullptr);
    out.has_cert = true;
    if (!out.cert.verified) {
      out.fallback = "verifier-rejected";
      return out;
    }
  }
  out.prog = std::make_shared<const PredicateProgram>(std::move(prog));
  return out;
}

/// Files the attempt's certificate into the certificate sink (when both
/// exist). Called exactly once per program that reaches a final lowering
/// decision; the fused scan->filter kernel drops the certificates of an
/// abandoned attempt instead (the per-operator fallback path re-attempts and
/// re-files them).
void Commit(const LowerCtx& ctx, PredCompile* pc) {
  if (pc->has_cert && ctx.exec.compilations != nullptr) {
    ctx.exec.compilations->push_back(std::move(pc->cert));
  }
  pc->has_cert = false;
}

/// The label rule for the operators whose core runs natively under both
/// backends (hash-join key matching, hash-aggregate grouping and
/// accumulation): the compiled backend can only inject a program for their
/// optional predicate (join residual, HAVING). The operator is labelled
/// compiled when that program is installed; otherwise it stays interpreted
/// with the compile attempt's fallback token, or `core_token` when there was
/// no predicate to compile. Returns the program to install (null when none).
std::shared_ptr<const PredicateProgram> CompileNativeCorePreds(
    const std::vector<Predicate>& preds, const RowLayout& layout,
    const LowerCtx& ctx, const char* node, const char* kind,
    const char* core_token, const char** label, const char** fallback) {
  if (!UseCompiled(ctx)) return nullptr;
  if (preds.empty()) {
    *fallback = core_token;
    return nullptr;
  }
  PredCompile pc = CompileAndVerify(preds, layout, ctx, node, kind);
  Commit(ctx, &pc);
  if (pc.prog != nullptr) {
    *label = "compiled";
  } else {
    *fallback = pc.fallback;
  }
  return std::move(pc.prog);
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
  RowLayout table_layout(rv.columns);
  auto scan = std::make_unique<TableScanOp>(
      def.data.get(), table_layout, plan->scan_filter, plan->output, ctx.io,
      charge_scan, rv.rowid);
  const char* label = nullptr;
  const char* fallback = nullptr;
  if (UseCompiled(ctx)) {
    PredCompile scan_pc = CompileAndVerify(plan->scan_filter, table_layout,
                                           ctx, "TableScan", "scan-filter");
    Commit(ctx, &scan_pc);
    if (scan_pc.prog != nullptr) {
      PredCompile no_filter = CompileAndVerify(
          std::vector<Predicate>{}, table_layout, ctx, "TableScan", "filter");
      Commit(ctx, &no_filter);
      if (no_filter.prog != nullptr) {
        scan->set_compiled_filter(std::move(scan_pc.prog),
                                  std::move(no_filter.prog));
        label = "compiled";
      } else {
        fallback = no_filter.fallback;
      }
    } else {
      fallback = scan_pc.fallback;
    }
  }
  return Tag(std::move(scan), plan, "TableScan", ctx, label, fallback);
}

/// Attempts the scan->filter->project fused kernel for a kFilter-over-kScan
/// shape: one operator covers both plan nodes. Returns null when a predicate
/// does not compile against the table layout (e.g. references the synthetic
/// rowid column) — the caller falls back to the operator-per-node pipeline.
OperatorPtr TryLowerFusedFilter(const PlanPtr& plan, const LowerCtx& ctx) {
  const PlanPtr& scan = plan->left;
  const RangeVar& rv = ctx.query.range_var(scan->rel_id);
  const TableDef& def = ctx.query.catalog().table(rv.table);
  if (def.data == nullptr) return nullptr;  // interpreted path reports it
  RowLayout table_layout(rv.columns);
  PredCompile scan_pc = CompileAndVerify(scan->scan_filter, table_layout, ctx,
                                         "FusedScanFilter", "scan-filter");
  PredCompile filter_pc = CompileAndVerify(plan->filter_preds, table_layout,
                                           ctx, "FusedScanFilter", "filter");
  if (scan_pc.prog == nullptr || filter_pc.prog == nullptr) return nullptr;
  Commit(ctx, &scan_pc);
  Commit(ctx, &filter_pc);
  auto fused = std::make_unique<TableScanOp>(
      def.data.get(), std::move(table_layout), scan->scan_filter,
      plan->output, ctx.io, /*charge_io=*/true, rv.rowid);
  fused->set_compiled_filter(std::move(scan_pc.prog),
                             std::move(filter_pc.prog));
  if (ctx.stats != nullptr) {
    // The fused-away scan node keeps a stats block of its own, so EXPLAIN
    // ANALYZE and the dataflow verifier's per-node checks still see it.
    OpStats* scan_stats = ctx.stats->Register(scan.get(), "TableScan");
    scan_stats->backend = "compiled";
    fused->set_scan_stats(scan_stats);
  }
  return Tag(std::move(fused), plan, "FusedScanFilter", ctx, "compiled");
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

  OperatorPtr join;
  const char* op_name = nullptr;
  const char* join_label = nullptr;
  const char* join_fallback = nullptr;
  JoinAlgo algo = plan->algo;
  if (plan->left_outer && algo == JoinAlgo::kSortMerge) {
    algo = JoinAlgo::kHash;  // merge join has no outer mode; hash does
  }
  switch (algo) {
    case JoinAlgo::kBlockNestedLoop: {
      double pages_per_pass = 0.0;
      bool charge_materialize = true;
      if (inner_is_bare_scan) {
        const RangeVar& rv = ctx.query.range_var(plan->right->rel_id);
        const TableDef& def = ctx.query.catalog().table(rv.table);
        pages_per_pass =
            def.data != nullptr
                ? static_cast<double>(def.data->page_count())
                : static_cast<double>(PagesForRows(def.stats.row_count,
                                                   def.schema.RowWidth()));
        charge_materialize = false;
      }
      join = std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right), plan->join_preds,
          &ctx.query.columns(), ctx.io, pages_per_pass, charge_materialize,
          plan->left_outer);
      op_name = "NestedLoopJoin";
      join_fallback = plan->left_outer ? "outer-join" : "nested-loop-join";
      break;
    }
    case JoinAlgo::kHash:
    case JoinAlgo::kSortMerge: {
      std::vector<std::pair<ColId, ColId>> keys;
      std::vector<Predicate> residual;
      SplitJoinPredicates(plan->join_preds, plan->left->output,
                          plan->right->output, &keys, &residual);
      if (keys.empty()) {
        return Status::Internal("hash/merge join lowered without equi-join keys");
      }
      if (algo == JoinAlgo::kHash) {
        std::vector<Predicate> residual_copy;
        if (UseCompiled(ctx)) residual_copy = residual;
        auto hj = std::make_unique<HashJoinOp>(
            std::move(left), std::move(right), std::move(keys),
            std::move(residual), &ctx.query.columns(), ctx.io,
            plan->left_outer);
        // Residual conjuncts see the concatenated probe row; compile them
        // against the join's own layout.
        if (auto prog = CompileNativeCorePreds(
                residual_copy, hj->layout(), ctx, "HashJoin", "join-residual",
                "join-core-interpreted", &join_label, &join_fallback)) {
          hj->set_compiled_residual(std::move(prog));
        }
        join = std::move(hj);
        op_name = "HashJoin";
      } else {
        join = std::make_unique<SortMergeJoinOp>(
            std::move(left), std::move(right), std::move(keys),
            std::move(residual), &ctx.query.columns(), ctx.io);
        op_name = "SortMergeJoin";
        join_fallback = "sort-merge-join";
      }
      break;
    }
  }
  join = Tag(std::move(join), plan, op_name, ctx, join_label, join_fallback);
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
      if (UseCompiled(ctx) && plan->left->kind == PlanNode::Kind::kScan) {
        if (OperatorPtr fused = TryLowerFusedFilter(plan, ctx)) return fused;
      }
      AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr child,
                               Lower(plan->left, ctx, true));
      OperatorPtr op = std::move(child);
      if (!plan->filter_preds.empty()) {
        auto filter =
            std::make_unique<FilterOp>(std::move(op), plan->filter_preds);
        const char* label = nullptr;
        const char* fallback = nullptr;
        if (UseCompiled(ctx)) {
          PredCompile pc = CompileAndVerify(plan->filter_preds,
                                            filter->layout(), ctx, "Filter",
                                            "filter");
          Commit(ctx, &pc);
          if (pc.prog != nullptr) {
            filter->set_compiled_preds(std::move(pc.prog));
            label = "compiled";
          } else {
            fallback = pc.fallback;
          }
        }
        op = Tag(std::move(filter), plan, "Filter", ctx, label, fallback);
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
      auto agg = std::make_unique<HashAggregateOp>(
          std::move(child), plan->group_by, &ctx.query.columns(), ctx.io);
      const char* label = nullptr;
      const char* fallback = nullptr;
      if (auto prog = CompileNativeCorePreds(
              plan->group_by.having, agg->layout(), ctx, "HashAggregate",
              "having", "aggregate-core-interpreted", &label, &fallback)) {
        agg->set_compiled_having(std::move(prog));
      }
      OperatorPtr op =
          Tag(std::move(agg), plan, "HashAggregate", ctx, label, fallback);
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
                           plan, "Sort", ctx, nullptr, "sort");
      return op;
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<OperatorPtr> LowerPlan(const PlanPtr& plan, const Query& query,
                              const ExecContext& ctx) {
  // Compilation certificates describe one lowering; a re-execution of the
  // same prepared plan refills them rather than accumulating stale entries.
  if (ctx.compilations != nullptr) ctx.compilations->clear();
  LowerCtx lctx{query, ctx.io, ctx.stats, ctx,
                std::make_shared<ExecRuntime>(ctx.threads, ctx.morsel_rows,
                                              ctx.pool)};
  return Lower(plan, lctx, /*charge_scan=*/true);
}

}  // namespace aggview
