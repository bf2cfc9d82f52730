#ifndef AGGVIEW_ANALYSIS_DATAFLOW_H_
#define AGGVIEW_ANALYSIS_DATAFLOW_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "algebra/query.h"
#include "analysis/transfer.h"
#include "common/result.h"
#include "exec/row_batch.h"
#include "optimizer/plan.h"

namespace aggview {

class RuntimeStatsCollector;

/// Abstract interpretation over physical plans (the dataflow verifier): a
/// bottom-up pass applying the transfer functions of analysis/transfer.h to
/// every node. Everything derived is a *theorem* about execution, not an
/// estimate: any run of the plan over data consistent with the catalog
/// statistics produces a row count inside each node's [lo, hi] and NULLs
/// only in maybe/always columns. PlanBuilder derives the same facts while it
/// builds each node (and clamps the node's estimate into them); this pass
/// re-derives them independently over the finished plan as the reference
/// for three consumers:
///
///  1. static obligations in AnalyzePlan (CheckDataflowObligations):
///     COUNT-family outputs are non-null and >= 0, coalescing combine
///     inputs are never-null where AggAccumulator::Merge requires it,
///     predicates are not statically dead, and every estimate lies inside
///     the provable bounds (outside = a node built or edited outside
///     PlanBuilder);
///  2. paranoid mode: AnalyzePlan (and with it this pass) runs on every
///     DP-table insertion of all three optimizers;
///  3. runtime self-verification (DataflowVerifier): a debug ExecContext
///     mode where the executor checks every produced batch and every
///     node's final row count against the static facts, which in turn lets
///     the differential fuzzer test the analysis itself against execution.
///
/// The result of the abstract interpretation: facts per plan node, keyed by
/// node identity (plans are DAGs — shared subplans are analyzed once).
/// Analysis is total: it never fails, it only loses precision (a node it
/// cannot model gets [0, inf) and maybe-NULL columns).
class DataflowAnalysis {
 public:
  static DataflowAnalysis Analyze(const PlanPtr& plan, const Query& query);

  const NodeFacts* Find(const PlanNode* node) const {
    auto it = facts_.find(node);
    return it == facts_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<const PlanNode*, NodeFacts> facts_;
};

/// Static obligations over the analysis (consumer 1). Errors name the
/// offending node (same convention as the analyzer's NodeError):
///  - every node's estimated row count lies inside the provable [lo, hi]
///    (PlanBuilder clamps it there, so an estimate outside the bounds is a
///    node that bypassed the builder);
///  - COUNT-family outputs are declared non-nullable, derive never-NULL,
///    and their domain proves >= 0;
///  - coalescing combine inputs that carry counts (the kCountSum argument
///    and the count side of kAvgFinal) derive never-NULL — a NULL there is
///    silently skipped by AggAccumulator::Add1/Add2/Merge and loses rows;
///  - no predicate (scan filter, residual filter, join predicate, HAVING)
///    references an always-NULL column outside COALESCE: such a conjunct is
///    statically false and the plan is dead weight at best, a miscompiled
///    pull-up at worst.
Status CheckDataflowObligations(const PlanPtr& plan, const Query& query,
                                const DataflowAnalysis& analysis);

/// Convenience: analyze + check in one call.
Status CheckDataflowObligations(const PlanPtr& plan, const Query& query);

/// True when `est_rows` lies inside `bounds` up to float-rounding slack.
bool EstimateWithinBounds(double est_rows, const CardBounds& bounds);

/// Returns `plan` with every node's estimated row count clamped into its
/// provable [lo, hi] bounds (nodes are immutable, so the spine above any
/// clamped node is rebuilt; feasible subtrees are shared with the input).
/// PlanBuilder already clamps every node it builds, so for optimizer output
/// this returns `plan` itself; only nodes built or edited by hand change.
PlanPtr ClampEstimatesToProvableBounds(const PlanPtr& plan,
                                       const Query& query);

/// Runtime self-verification (consumer 3): owns the analysis of one plan
/// and checks actual execution against it. Installed via
/// ExecContext::WithVerify; the executor then
///  - checks every batch an operator produces (CheckBatch): NULLs only in
///    maybe/always columns, values inside the value domains;
///  - checks every node's total produced row count against [lo, hi] after
///    the drain (CheckPlanCardinality).
/// Thread-safe: the facts are immutable after construction and the check
/// counter is atomic (worker clones of a morsel-parallel pipeline all call
/// CheckBatch).
class DataflowVerifier {
 public:
  DataflowVerifier(const PlanPtr& plan, const Query& query)
      : plan_(plan),
        query_(&query),
        analysis_(DataflowAnalysis::Analyze(plan, query)) {}

  const DataflowAnalysis& analysis() const { return analysis_; }

  /// Verifies one produced batch of `node` (layout = the producing
  /// operator's output layout). Counts one check per (column, batch).
  Status CheckBatch(const PlanNode* node, const RowLayout& layout,
                    const RowBatch& batch) const;

  /// Verifies the per-node total row counts recorded in `stats` against the
  /// static bounds. Call after the plan fully drained.
  Status CheckPlanCardinality(const RuntimeStatsCollector& stats) const;

  /// Number of runtime facts checked so far (batch-column checks plus
  /// per-node cardinality checks).
  int64_t checks() const { return checks_.load(std::memory_order_relaxed); }

 private:
  Status CheckNodeCardinality(const PlanPtr& node,
                              const RuntimeStatsCollector& stats) const;

  PlanPtr plan_;
  const Query* query_;
  DataflowAnalysis analysis_;
  mutable std::atomic<int64_t> checks_{0};
};

}  // namespace aggview

#endif  // AGGVIEW_ANALYSIS_DATAFLOW_H_
