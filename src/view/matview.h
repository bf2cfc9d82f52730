#ifndef AGGVIEW_VIEW_MATVIEW_H_
#define AGGVIEW_VIEW_MATVIEW_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/exec_context.h"
#include "sql/ast.h"

namespace aggview {

/// Materialized-view lifecycle: CREATE builds the backing table (one row per
/// group: grouping keys, then deduplicated partial-aggregate columns, then
/// the hidden "__rows" COUNT(*)), registers it in the catalog with the
/// grouping prefix as primary key, and records the ViewDefinition; REFRESH
/// recomputes the content from the current base data and swaps it in.
///
/// Definitions are the binder's aggregate-query class with restrictions:
/// FROM lists base tables only (no views over views), no HAVING, no ORDER
/// BY, no MEDIAN (not decomposable — its partials cannot be maintained or
/// rolled up). A definition without GROUP BY is a scalar view: its backing
/// table holds exactly one row, kept (with empty-aggregate values) even when
/// the base goes empty.

struct DefAnalysis;     // view/definition_analysis.h
struct OptimizedQuery;  // optimizer/aggview_optimizer.h

/// Executes `opt`, a plan of the partial-form definition `a.query`, under
/// `ctx` and returns its rows in backing-column order (grouping keys, then
/// partials). REFRESH runs it over the whole base; delta maintenance runs it
/// with one base table replaced by the delta's rows.
Result<std::vector<Row>> ExecuteViewContent(const DefAnalysis& a,
                                            const OptimizedQuery& opt,
                                            const ExecContext& ctx);

/// Creates the view described by a parsed CREATE MATERIALIZED VIEW
/// statement: analyzes and binds the definition, executes it in partial form
/// under `ctx`, loads the backing table, and registers the ViewDefinition.
/// Returns the registered definition (owned by the catalog).
Result<const ViewDefinition*> CreateMaterializedView(
    Catalog* catalog, const AstMatViewDdl& ddl,
    const ExecContext& ctx = ExecContext::Default());

/// Recomputes the view's content from the current base tables and replaces
/// the backing rows. Bumps the backing table's epoch (invalidating cached
/// plans that scan it), the view's content epoch, and re-stamps the synced
/// base epochs so the view is fresh again.
Status RefreshMaterializedView(Catalog* catalog, const std::string& name,
                               const ExecContext& ctx = ExecContext::Default());

/// The multiset of materialized view `name`'s backing rows, rendered as
/// QueryResult::Fingerprint renders a result: maintained content and a
/// REFRESH's content are equal exactly when their fingerprints are. The view
/// must exist.
std::string BackingFingerprint(const Catalog& catalog, const std::string& name);

/// Parses and runs one materialized-view DDL statement (CREATE or REFRESH),
/// returning a one-line human-readable confirmation.
Result<std::string> ExecuteMatViewStatement(
    Catalog* catalog, const std::string& sql,
    const ExecContext& ctx = ExecContext::Default());

}  // namespace aggview

#endif  // AGGVIEW_VIEW_MATVIEW_H_
