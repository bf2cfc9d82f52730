#ifndef AGGVIEW_ANALYSIS_TRANSFER_H_
#define AGGVIEW_ANALYSIS_TRANSFER_H_

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/query.h"

namespace aggview {

/// The dataflow verifier's abstract domain and transfer functions: per plan
/// operator, provable facts (cardinality bounds, nullability, value domains,
/// distinct bounds) from the operator's input facts plus its own predicates
/// or GroupBySpec. PlanBuilder derives each node's facts with them while it
/// builds the node; DataflowAnalysis re-derives them over a finished plan.
/// Does not depend on optimizer/plan.h, which uses it.
enum class Nullability {
  kNever,   // no row of this node carries NULL in the column
  kMaybe,   // unknown; NULLs permitted
  kAlways,  // every row carries NULL (outer-join padding of an empty side)
};

const char* NullabilityName(Nullability n);

/// Unbounded distinct-count sentinel.
inline constexpr double kUnboundedDistinct =
    std::numeric_limits<double>::infinity();

/// Abstract state of one column at one plan node.
struct ColumnFacts {
  Nullability null = Nullability::kMaybe;
  /// Closed numeric interval over the column's non-NULL values.
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;
  /// Closed lexicographic interval for string columns.
  bool has_str_range = false;
  std::string min_str;
  std::string max_str;
  /// Sound upper bound on the number of distinct non-NULL values
  /// (kUnboundedDistinct when nothing is known).
  double max_distinct = kUnboundedDistinct;
};

/// Provable cardinality bounds of one plan node.
struct CardBounds {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
};

/// The abstract state of one plan node: cardinality bounds plus facts for
/// every column flowing through the node (not just the projected output, so
/// pre-projection operators of the same node are checkable too).
struct NodeFacts {
  CardBounds card;
  std::unordered_map<ColId, ColumnFacts> cols;
  /// Rendering of the first predicate of this node proved statically false
  /// because it references an always-NULL column outside COALESCE (empty
  /// when none). Surfaced as a static obligation failure.
  std::string dead_predicate;

  const ColumnFacts* Find(ColId c) const {
    auto it = cols.find(c);
    return it == cols.end() ? nullptr : &it->second;
  }
};

/// Sound upper bound on a column's distinct non-NULL values: max_distinct,
/// capped by the value interval's width when `type` is INT64 and the
/// interval lies inside (-2^53, 2^53), where doubles hold integers exactly.
double DistinctBound(const ColumnFacts& cf, DataType type);

/// Scan of range variable `rel_id` (unknown ids get [0, inf), no columns).
NodeFacts ScanFacts(const Query& query, int rel_id,
                    const std::vector<Predicate>& scan_filter);

/// Residual filter; no predicates = the exact pass-through of a projection.
NodeFacts FilterFacts(const NodeFacts& input,
                      const std::vector<Predicate>& preds,
                      const ColumnCatalog& cat);

/// Inner join, or with `left_outer` a left outer join (right columns gain
/// NULL padding).
NodeFacts JoinFacts(const NodeFacts& left, const NodeFacts& right,
                    const std::vector<Predicate>& preds, bool left_outer,
                    const ColumnCatalog& cat);

/// Group-by including its aggregate outputs and HAVING.
NodeFacts GroupByFacts(const NodeFacts& input, const GroupBySpec& spec,
                       const ColumnCatalog& cat);

}  // namespace aggview

#endif  // AGGVIEW_ANALYSIS_TRANSFER_H_
