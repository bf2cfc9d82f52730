#ifndef AGGVIEW_OBS_EXPLAIN_H_
#define AGGVIEW_OBS_EXPLAIN_H_

#include <string>
#include <vector>

#include "obs/runtime_stats.h"
#include "optimizer/plan.h"

namespace aggview {

/// The standard cardinality-estimation error metric:
/// max(est/actual, actual/est), with both sides clamped to >= 1 row so a
/// correctly-predicted empty result scores 1 (perfect) rather than dividing
/// by zero.
double QError(double est, double actual);

/// Estimated-vs-actual comparison for one plan node.
struct NodeQError {
  const PlanNode* node = nullptr;
  std::string label;        // e.g. "Join(hash)" or "Scan emp e1"
  double est_rows = 0.0;
  double actual_rows = 0.0;
  double q = 1.0;
};

/// Walks the plan tree and pairs every node's estimated cardinality with the
/// actual row count observed by the operator it was lowered to. Nodes the
/// collector never saw (not lowered, e.g. an unexecuted alternative) are
/// skipped.
std::vector<NodeQError> CollectNodeQErrors(const PlanPtr& plan,
                                           const Query& query,
                                           const RuntimeStatsCollector& stats);

/// Aggregate of the per-node Q-errors of one plan.
struct QErrorSummary {
  int nodes = 0;
  double max_q = 1.0;
  double mean_q = 1.0;      // geometric mean — q-errors are ratios
  std::string worst_label;  // label of the node with the largest q
};

QErrorSummary SummarizeQError(const std::vector<NodeQError>& nodes);

/// Renders the annotated plan tree of one *executed* plan: every node shows
/// its estimated rows, actual rows, per-node Q-error, actual IO pages
/// charged, and wall time (EXPLAIN ANALYZE). `stats` must come from
/// executing exactly this plan (ExecutePlan with a collector installed).
std::string ExplainAnalyze(const PlanPtr& plan, const Query& query,
                           const RuntimeStatsCollector& stats);

struct CompilationCertificate;

/// Verbose EXPLAIN ANALYZE: the annotated plan tree plus one section per
/// compiled bytecode program of the execution's lowering (the certificates
/// ExecContext::compilations collected): which operator it belongs to, the
/// source predicate, the verification verdict with witness-row count, and
/// the full disassembly. With no certificates the output equals the plain
/// overload's.
std::string ExplainAnalyze(
    const PlanPtr& plan, const Query& query, const RuntimeStatsCollector& stats,
    const std::vector<CompilationCertificate>& compilations);

}  // namespace aggview

#endif  // AGGVIEW_OBS_EXPLAIN_H_
