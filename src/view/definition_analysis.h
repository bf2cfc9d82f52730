#ifndef AGGVIEW_VIEW_DEFINITION_ANALYSIS_H_
#define AGGVIEW_VIEW_DEFINITION_ANALYSIS_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/query.h"
#include "catalog/catalog.h"
#include "common/result.h"

namespace aggview {

/// The bound and analyzed form of a materialized-view definition. Produced
/// from the stored definition SQL each time it is needed — by CREATE and
/// REFRESH (to execute the partial form), by the view-matching rewriter (to
/// compare the definition's blocks and predicates against a candidate
/// query), and by the certificate verifier (to re-derive the rewriter's
/// claims independently).
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
  bool scalar = false;
  int num_grouping = 0;
  /// Definition-space grouping ColIds, in GROUP BY order; per key the FROM
  /// position and table-local column it came from.
  std::vector<ColId> grouping_ids;
  std::vector<int> grouping_rel;
  std::vector<int> grouping_col;
  std::vector<ViewAggSlot> slots;
  std::vector<ViewDefinition::Partial> partials;
  /// Backing column of the hidden COUNT(*) partial.
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
