#ifndef AGGVIEW_VIEW_DEFINITION_ANALYSIS_H_
#define AGGVIEW_VIEW_DEFINITION_ANALYSIS_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/query.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "expr/aggregate.h"

namespace aggview {

/// One aggregate slot of a materialized view: how the definition aggregate
/// is stored as partials in the backing table and recombined at query time.
/// The split/merge rules come from transform/decompose.h — the same table
/// coalescing uses — so maintenance and roll-up provably agree with the
/// optimizer's algebra.
struct ViewAggSlot {
  /// The definition's aggregate (a user kind: SUM/COUNT/COUNT(*)/MIN/MAX/AVG;
  /// MEDIAN is rejected at CREATE).
  AggKind kind = AggKind::kCountStar;
  /// Compensating combine applied when answering a query from the view
  /// (DecomposeAggregate(kind).combine).
  AggKind combine = AggKind::kCountSum;
  /// Definition-block relation the argument comes from (position in the
  /// definition's FROM list) and the argument's table-local column index;
  /// both -1 for COUNT(*).
  int arg_rel = -1;
  int arg_col = -1;
  /// Backing-table columns feeding the combine, in argument order (one for
  /// SUM/COUNT/MIN/MAX, [psum, pcount] for AVG).
  std::vector<int> storage;
};

/// One backing partial column: the partial-aggregate kind and argument
/// stored there (definition FROM position + table-local column; both -1 for
/// the COUNT(*) partial). Shared partials (AVG and SUM over the same
/// argument) appear once. Delta maintenance merges and retracts at this
/// level.
struct ViewPartial {
  AggKind kind = AggKind::kCountStar;
  int arg_rel = -1;
  int arg_col = -1;
  /// SUM partials only: the backing column of the COUNT partial over the
  /// same argument — the retraction witness that restores the sum to NULL
  /// when the last non-NULL argument leaves a group. -1 otherwise.
  int witness = -1;
};

/// The bound and analyzed form of a materialized-view definition. CREATE
/// derives it once and stores it on the ViewDefinition, where REFRESH (to
/// execute the partial form), delta maintenance (to merge rows into
/// partials) and the view-matching rewriter (to compare the definition's
/// blocks and predicates against a candidate query) read it. The
/// certificate verifier derives its own copy from the SQL, so it checks the
/// rewriter's claims independently.
struct DefAnalysis {
  explicit DefAnalysis(Query q) : query(std::move(q)) {}

  /// The definition bound as a top-level aggregate query against the base
  /// tables, then mutated into *partial* form: top_group_by's aggregates are
  /// the deduplicated partial calls and select_list is `content_cols`. The
  /// definition's FROM rels (base_rels), WHERE (predicates) and grouping are
  /// untouched, so matching code reads them directly.
  Query query;
  /// The definition's original aggregate calls (before the partial
  /// mutation), positionally aligned with `slots`.
  std::vector<AggregateCall> def_aggregates;
  /// Resolved output name per definition select item.
  std::vector<std::string> out_names;
  /// ColId per definition select item (grouping columns and original
  /// aggregate outputs), positionally aligned with `out_names`.
  std::vector<ColId> item_cols;
  /// Catalog table per definition FROM entry, in FROM order.
  std::vector<TableId> base_tables;
  /// No GROUP BY: the backing table then always holds exactly one row, kept
  /// (with empty-aggregate values) even when the base goes empty.
  bool scalar = false;
  int num_grouping = 0;
  /// Definition-space grouping ColIds, in GROUP BY order; per key the FROM
  /// position and table-local column it came from.
  std::vector<ColId> grouping_ids;
  std::vector<int> grouping_rel;
  std::vector<int> grouping_col;
  /// One slot per definition aggregate, in definition order.
  std::vector<ViewAggSlot> slots;
  /// Backing partial columns [num_grouping, ...), positionally.
  std::vector<ViewPartial> partials;
  /// Backing column of the hidden COUNT(*) ("__rows"): detects a delta
  /// emptying a group. Always present, shared with a COUNT(*) slot if any.
  int rows_col = -1;
  /// Backing-table schema: grouping keys, then partial columns.
  Schema backing_schema;
  /// Definition-space ColIds in backing-column order (grouping ids followed
  /// by partial outputs) — the select list of the partial-form `query`.
  std::vector<ColId> content_cols;
};

/// Parses, validates and binds a definition: FROM must list base tables only
/// (no views over views), no HAVING / ORDER BY / MEDIAN, every select item a
/// grouping column or aggregate, and output names (declared or derived)
/// unique and not reserved ("__" prefix). `declared_names` positionally
/// override the derived item names and may be shorter than the item list.
Result<DefAnalysis> AnalyzeViewDefinition(
    const Catalog& catalog, const std::string& view_name,
    const std::string& select_sql,
    const std::vector<std::string>& declared_names);

}  // namespace aggview

#endif  // AGGVIEW_VIEW_DEFINITION_ANALYSIS_H_
