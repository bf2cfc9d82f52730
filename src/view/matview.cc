#include "view/matview.h"

#include <memory>
#include <utility>
#include <vector>

#include "catalog/statistics.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "optimizer/traditional.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "view/definition_analysis.h"

namespace aggview {

namespace {

/// Executes the analyzed definition in partial form and returns the backing
/// rows, reordered into backing-column order (grouping keys, then partials).
Result<std::vector<Row>> ComputeContent(const DefAnalysis& a,
                                        const ExecContext& ctx) {
  AGGVIEW_ASSIGN_OR_RETURN(OptimizedQuery opt, OptimizeTraditional(a.query));
  AGGVIEW_ASSIGN_OR_RETURN(QueryResult res,
                           ExecutePlan(opt.plan, opt.query, ctx));
  std::vector<int> pos;
  pos.reserve(a.content_cols.size());
  for (ColId c : a.content_cols) {
    int i = res.layout.IndexOf(c);
    if (i < 0) {
      return Status::Internal("materialization result lacks column " +
                              a.query.columns().name(c));
    }
    pos.push_back(i);
  }
  std::vector<Row> rows;
  rows.reserve(res.rows.size());
  for (const Row& r : res.rows) {
    Row out;
    out.reserve(pos.size());
    for (int i : pos) out.push_back(r[static_cast<size_t>(i)]);
    rows.push_back(std::move(out));
  }
  return rows;
}

}  // namespace

Result<const ViewDefinition*> CreateMaterializedView(Catalog* catalog,
                                                     const AstMatViewDdl& ddl,
                                                     const ExecContext& ctx) {
  if (ddl.refresh) {
    return Status::InvalidArgument(
        "CreateMaterializedView called with a REFRESH statement");
  }
  if (catalog->FindView(ddl.name) != nullptr) {
    return Status::InvalidArgument("materialized view '" + ddl.name +
                                   "' already exists");
  }
  if (catalog->FindTable(ddl.name).ok()) {
    return Status::InvalidArgument("materialized view '" + ddl.name +
                                   "' would shadow a base table");
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      DefAnalysis a,
      AnalyzeViewDefinition(*catalog, ddl.name, ddl.select_sql,
                            ddl.column_names));
  AGGVIEW_ASSIGN_OR_RETURN(std::vector<Row> rows, ComputeContent(a, ctx));

  TableDef def;
  // TableIds are positional and DropView leaves the slot allocated, so the
  // backing name carries the table count to stay unique across re-creates.
  def.name = "__mv_" + ddl.name + "__" + std::to_string(catalog->num_tables());
  def.schema = a.backing_schema;
  for (int i = 0; i < a.num_grouping; ++i) def.primary_key.push_back(i);
  auto table = std::make_shared<Table>(a.backing_schema);
  table->Reserve(static_cast<int64_t>(rows.size()));
  // Append bypasses per-value validation: partial NULLs type as strings under
  // Value::type() and would fail the strict check; the executor produced
  // these rows under the very schema we derived from it.
  for (Row& r : rows) table->AppendUnchecked(std::move(r));
  def.stats = ComputeStats(*table);
  def.data = std::move(table);
  AGGVIEW_ASSIGN_OR_RETURN(TableId backing, catalog->AddTable(std::move(def)));

  auto view = std::make_unique<ViewDefinition>();
  view->name = ddl.name;
  view->definition_sql = ddl.select_sql;
  view->column_names = a.out_names;
  view->backing_table = backing;
  view->base_tables = a.base_tables;
  view->def = std::make_shared<const DefAnalysis>(std::move(a));
  catalog->MarkViewSynced(view.get());

  const ViewDefinition* out = view.get();
  AGGVIEW_RETURN_NOT_OK(catalog->AddView(std::move(view)));
  return out;
}

Status RefreshMaterializedView(Catalog* catalog, const std::string& name,
                               const ExecContext& ctx) {
  ViewDefinition* view = catalog->FindMutableView(name);
  if (view == nullptr) {
    return Status::InvalidArgument("no materialized view named '" + name + "'");
  }
  AGGVIEW_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           ComputeContent(*view->def, ctx));
  // mutable_table bumps the backing table's epoch, which is exactly the
  // invalidation cached view-backed plans key on.
  TableDef& backing = catalog->mutable_table(view->backing_table);
  backing.data->ReplaceRows(std::move(rows));
  backing.stats = ComputeStats(*backing.data);
  catalog->MarkViewSynced(view);
  return Status::OK();
}

Result<std::string> ExecuteMatViewStatement(Catalog* catalog,
                                            const std::string& sql,
                                            const ExecContext& ctx) {
  AGGVIEW_ASSIGN_OR_RETURN(AstMatViewDdl ddl, ParseMatViewDdl(sql));
  if (ddl.refresh) {
    AGGVIEW_RETURN_NOT_OK(RefreshMaterializedView(catalog, ddl.name, ctx));
    const ViewDefinition* view = catalog->FindView(ddl.name);
    return StrFormat("refreshed materialized view %s (%lld groups)",
                     ddl.name.c_str(),
                     static_cast<long long>(
                         catalog->table(view->backing_table).data->row_count()));
  }
  AGGVIEW_ASSIGN_OR_RETURN(const ViewDefinition* view,
                           CreateMaterializedView(catalog, ddl, ctx));
  return StrFormat("created materialized view %s (%lld groups)",
                   ddl.name.c_str(),
                   static_cast<long long>(
                       catalog->table(view->backing_table).data->row_count()));
}

}  // namespace aggview
