#ifndef AGGVIEW_OPTIMIZER_PLAN_H_
#define AGGVIEW_OPTIMIZER_PLAN_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "analysis/transfer.h"
#include "cost/cost_model.h"
#include "stats/estimator.h"

namespace aggview {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A physical execution plan node. Immutable and shared: the dynamic
/// programming tables reference subplans from many alternatives.
///
/// Every node carries its projected output layout, its provable facts
/// (analysis/transfer.h), the estimated output relation (rows + column
/// stats), the estimated output row width, and the cumulative estimated IO
/// cost.
struct PlanNode {
  enum class Kind { kScan, kFilter, kJoin, kGroupBy, kSort };

  Kind kind = Kind::kScan;

  // --- kScan: a base range variable with pushed-down local predicates.
  int rel_id = -1;
  std::vector<Predicate> scan_filter;

  // --- kFilter: residual predicates over `left` (used for predicates on a
  // composite input, e.g. a deferred comparison against a view's aggregate).
  std::vector<Predicate> filter_preds;

  // --- kJoin: left is the outer input. `left_outer` preserves unmatched
  // left rows, padding the right columns with NULLs (the outer-join
  // extension of the paper's footnote 3 / [CS96]).
  JoinAlgo algo = JoinAlgo::kBlockNestedLoop;
  bool left_outer = false;
  PlanPtr left;
  PlanPtr right;
  std::vector<Predicate> join_preds;

  // --- kGroupBy over `left`.
  GroupBySpec group_by;

  // --- kSort over `left` (final ORDER BY).
  std::vector<OrderKey> sort_keys;

  // --- Common annotations.
  RowLayout output;
  /// Provable facts (analysis/transfer.h), set by PlanBuilder, which needs
  /// them on every input it builds on; shared, not copied, by nodes that
  /// differ only in join algorithm or row order.
  std::shared_ptr<const NodeFacts> facts;
  RelEstimate est;
  double width = 0.0;   // output row bytes
  double cost = 0.0;    // cumulative estimated IO (pages)

  double OutputPages() const {
    return CostModel::Pages(est.rows, static_cast<int64_t>(width));
  }
};

/// Constructs annotated plan nodes: computes layouts (projecting to the
/// columns needed downstream), facts, estimates, and costs. One builder per
/// query. Each estimate is clamped into the node's facts, so every estimate
/// the optimizers compare is inside the provable bounds by construction.
class PlanBuilder {
 public:
  explicit PlanBuilder(const Query& query) : query_(&query) {}

  /// Scan of range variable `rel_id` with `local_preds` applied during the
  /// scan; the output keeps only columns in `needed`.
  PlanPtr Scan(int rel_id, std::vector<Predicate> local_preds,
               const std::set<ColId>& needed) const;

  /// Residual filter; layout unchanged.
  PlanPtr Filter(PlanPtr input, std::vector<Predicate> preds) const;

  /// Join with a specific algorithm. `left` is the outer input, preserved
  /// when `left_outer` (see LeftOuterJoin).
  PlanPtr Join(JoinAlgo algo, PlanPtr left, PlanPtr right,
               std::vector<Predicate> preds, const std::set<ColId>& needed,
               bool left_outer = false) const;

  /// Left outer join: every left row survives; unmatched ones are padded
  /// with NULLs on the right. A hash join when the predicates give an
  /// equi-join key, else a block-nested-loop join, both in outer mode.
  PlanPtr LeftOuterJoin(PlanPtr left, PlanPtr right,
                        std::vector<Predicate> preds,
                        const std::set<ColId>& needed) const;

  /// The cheaper of the block-nested-loop join and, when the predicates
  /// give an equi-join key, the hash join; ties go to the block-nested-loop
  /// join.
  PlanPtr BestJoin(PlanPtr left, PlanPtr right, std::vector<Predicate> preds,
                   const std::set<ColId>& needed) const;

  /// Group-by over `input`; output layout is (grouping + agg outputs)
  /// intersected with `needed` (grouping columns stay in the spec even when
  /// projected away).
  PlanPtr GroupBy(PlanPtr input, GroupBySpec spec,
                  const std::set<ColId>& needed) const;

  /// Final projection to exactly `select` (order preserved).
  PlanPtr Project(PlanPtr input, const std::vector<ColId>& select) const;

  /// Final ORDER BY: external sort of the result.
  PlanPtr Sort(PlanPtr input, std::vector<OrderKey> keys) const;

  const Query& query() const { return *query_; }

 private:
  const Query* query_;
};

/// One-line label of a single node — kind, algorithm, predicates — without
/// estimates or indentation (shared by PlanToString and EXPLAIN ANALYZE).
std::string PlanNodeLabel(const PlanPtr& plan, const Query& query);

/// Indented tree rendering with per-node algorithm, estimated rows and
/// cumulative cost.
std::string PlanToString(const PlanPtr& plan, const Query& query);

}  // namespace aggview

#endif  // AGGVIEW_OPTIMIZER_PLAN_H_
