#ifndef AGGVIEW_OPTIMIZER_AGGVIEW_OPTIMIZER_H_
#define AGGVIEW_OPTIMIZER_AGGVIEW_OPTIMIZER_H_

#include <string>
#include <vector>

#include "analysis/certificate.h"
#include "optimizer/join_enumerator.h"

namespace aggview {

/// Options of the two-phase aggregate-view optimizer (Sections 5.3 / 5.4).
struct OptimizerOptions {
  /// Single-block enumeration options (greedy conservative heuristic).
  EnumeratorOptions enumerator;
  /// Run the [MFPR90, LMS94]-style predicate propagation first (the prior
  /// art the paper's Section 1 builds on). On for both the traditional and
  /// the extended configuration, so comparisons are against the realistic
  /// preprocessed baseline.
  bool propagate_predicates = true;
  /// k-level pull-up: at most this many relations may be pulled into any one
  /// view (the paper's restriction bounding the W-subset explosion). 0
  /// disables pull-up entirely.
  int max_pullup = 2;
  /// Enumerate pulling a relation only when it shares a predicate with the
  /// (possibly already extended) view — the paper's other practical
  /// restriction.
  bool require_shared_predicate = true;
  /// Move each view's removable relations (V - V') into the top block before
  /// enumerating (Section 5.3's B' = B ∪ (V - V')).
  bool shrink_views = true;
  /// Also run the traditional two-phase optimizer and return its plan when
  /// (contrary to the paper's argument) it beats every enumerated
  /// alternative. Keeping it on makes the no-worse guarantee unconditional.
  bool include_traditional_alternative = true;
  /// Paranoid self-checking: run the semantic analyzer (analysis/analyzer.h)
  /// on every candidate plan at DP-table insertion time, emit and re-verify a
  /// legality certificate for every transformation applied (pull-up, view
  /// shrinking, early group-by placement), and analyze the winning plan once
  /// more before returning it. Any failure aborts optimization with an error
  /// naming the offending node or claim. Defaults on when the library is
  /// built with -DAGGVIEW_PARANOID=ON.
#ifdef AGGVIEW_PARANOID
  bool paranoid = true;
#else
  bool paranoid = false;
#endif
  /// When paranoid, include the dataflow verifier pass (analysis/dataflow.h)
  /// in every DP-insertion analysis and in the final-plan analysis. Turning
  /// it off (bench_e12) isolates what the abstract interpretation costs on
  /// top of the other semantic passes.
  bool paranoid_dataflow = true;
};

/// One evaluated alternative (a W assignment), for the experiment reports.
struct PlanAlternative {
  std::string description;
  double cost = 0.0;
};

/// The outcome of optimization. `plan` must be interpreted (and executed)
/// against `query`, which is the rewritten query of the winning alternative
/// (its column catalog contains any partial-aggregate columns allocated
/// during enumeration).
struct OptimizedQuery {
  Query query;
  PlanPtr plan;
  EnumerationCounters counters;
  std::string description;
  std::vector<PlanAlternative> alternatives;
  /// Certificates of every query-level transformation the winning rewrite
  /// applied (view shrinking, pull-up). Populated in paranoid mode; each was
  /// verified when it was emitted and can be re-verified against `query` with
  /// VerifyAudit.
  TransformationAudit audit;

  OptimizedQuery() : query(nullptr) {}
  explicit OptimizedQuery(Query q) : query(std::move(q)) {}
};

/// Cost-based optimization of a canonical-form query with aggregate views:
/// shrink views to their minimal invariant sets, enumerate pull-up subsets
/// W_i per view (subject to the practical restrictions), optimize each
/// extended view Φ(V_i', W_i) with the greedy conservative enumerator
/// (phase 1), then optimize the top block over the composites and the
/// remaining relations (phase 2). The returned plan's estimated cost is
/// never worse than the traditional optimizer's.
Result<OptimizedQuery> OptimizeQueryWithAggViews(const Query& query,
                                                 const OptimizerOptions& options);

}  // namespace aggview

#endif  // AGGVIEW_OPTIMIZER_AGGVIEW_OPTIMIZER_H_
