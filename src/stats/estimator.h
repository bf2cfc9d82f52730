#ifndef AGGVIEW_STATS_ESTIMATOR_H_
#define AGGVIEW_STATS_ESTIMATOR_H_

#include <unordered_map>
#include <vector>

#include "algebra/query.h"
#include "catalog/statistics.h"

namespace aggview {

/// Estimated statistics for one output column of a (sub)plan.
struct ColEstimate {
  double distinct = 1.0;
  double min = 0.0;
  double max = 0.0;
  bool has_range = false;
  /// Base-table equi-depth histogram (owned by the catalog; null for
  /// derived columns). Range selectivities condition the histogram on the
  /// current [min, max], so it stays usable after earlier filters narrowed
  /// the column.
  ///
  /// Lifetime contract: this is a raw pointer into the catalog-owned
  /// TableStats the estimate was built from. Any catalog statistics
  /// mutation — Catalog::mutable_table, ComputeStats, or an explicit
  /// BumpStatsEpoch — may reallocate or replace that storage, so an
  /// estimate must not be used past the stats epoch it was built under.
  /// RelEstimate carries that epoch (stamped by Estimator::BaseRel and
  /// propagated by every derivation); Estimator::CheckFresh turns a stale
  /// estimate into a clear error instead of a dangling read.
  const Histogram* histogram = nullptr;
};

using ColStatsMap = std::unordered_map<ColId, ColEstimate>;

/// Estimated statistics for a (sub)plan's output relation.
struct RelEstimate {
  double rows = 0.0;
  ColStatsMap cols;
  /// Catalog stats epoch the leaf statistics (histogram pointers in `cols`)
  /// were read at; -1 when the estimate holds no catalog-owned state. See
  /// ColEstimate::histogram for the lifetime contract this stamp enforces.
  int64_t stats_epoch = -1;

  const ColEstimate* Find(ColId c) const {
    auto it = cols.find(c);
    return it == cols.end() ? nullptr : &it->second;
  }
};

/// Selectivity assumed for predicates the estimator cannot analyze
/// (arithmetic on both sides, string ranges, ...). The classic System-R
/// default.
inline constexpr double kDefaultSelectivity = 1.0 / 3.0;

/// Textbook cardinality estimation: independence across conjuncts, uniform
/// values within a column, containment of value sets for joins, and the
/// Cardenas formula for the number of groups. Statistics are exact at the
/// leaves (ComputeStats scans the data), so estimation error comes only from
/// the model assumptions.
/// Heuristics only: PlanBuilder clamps each estimate into the node's
/// provable facts (analysis/transfer.h), the one derivation of bounds.
class Estimator {
 public:
  /// Estimate for a base range variable before any predicate.
  static RelEstimate BaseRel(const Query& query, int rel_id);

  /// Selectivity of one conjunct against `input`.
  static double Selectivity(const Predicate& pred, const RelEstimate& input);

  /// Applies a conjunction: multiplies selectivities, caps distinct counts by
  /// the output cardinality, and narrows ranges for col-vs-literal conjuncts.
  static RelEstimate ApplyFilter(const RelEstimate& input,
                                 const std::vector<Predicate>& preds);

  /// Join of two inputs under a conjunction of join predicates.
  static RelEstimate Join(const RelEstimate& left, const RelEstimate& right,
                          const std::vector<Predicate>& preds);

  /// Group-by: the Cardenas-capped group count plus output column stats
  /// (grouping columns keep their stats; aggregate outputs get
  /// distinct = #groups and inherit the argument's range when meaningful).
  /// HAVING is applied as a filter on the grouped output.
  static RelEstimate GroupBy(const RelEstimate& input, const GroupBySpec& spec);

  /// Expected number of distinct groups when `rows` rows draw uniformly from
  /// `dvalues` possible grouping-key values: d * (1 - (1 - 1/d)^n).
  static double CardenasGroups(double rows, double dvalues);

  /// Enforces ColEstimate::histogram's lifetime contract: an error when
  /// `est` was built under an older catalog stats epoch (its histogram
  /// pointers may dangle — the estimate must be rebuilt), OK for estimates
  /// without catalog-owned state (stats_epoch == -1).
  static Status CheckFresh(const RelEstimate& est, const Catalog& catalog);
};

}  // namespace aggview

#endif  // AGGVIEW_STATS_ESTIMATOR_H_
