#include "view/definition_analysis.h"

#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "transform/decompose.h"

namespace aggview {

namespace {

/// Finds the (FROM position, table-local column) a definition-space ColId
/// came from.
Result<std::pair<int, int>> LocateColumn(const Query& query, ColId id) {
  const std::vector<int>& rels = query.base_rels();
  for (size_t p = 0; p < rels.size(); ++p) {
    const RangeVar& rv = query.range_var(rels[p]);
    for (size_t j = 0; j < rv.columns.size(); ++j) {
      if (rv.columns[j] == id) {
        return std::make_pair(static_cast<int>(p), static_cast<int>(j));
      }
    }
  }
  return Status::Internal("column " + query.columns().name(id) +
                          " is not a base column of the view definition");
}

}  // namespace

Result<DefAnalysis> AnalyzeViewDefinition(
    const Catalog& catalog, const std::string& view_name,
    const std::string& select_sql,
    const std::vector<std::string>& declared_names) {
  AGGVIEW_ASSIGN_OR_RETURN(AstSelect ast, ParseSelect(select_sql));
  auto reject = [&](const std::string& what) {
    return Status::InvalidArgument("materialized view '" + view_name + "': " +
                                   what);
  };
  if (!ast.having.empty()) {
    return reject("HAVING is not supported in definitions");
  }
  if (!ast.order_by.empty()) {
    return reject("ORDER BY is not supported in definitions");
  }
  for (const AstTableRef& ref : ast.from) {
    if (catalog.FindView(ref.table) != nullptr) {
      return reject("definitions over materialized views are not supported ('" +
                    ref.table + "')");
    }
  }
  if (declared_names.size() > ast.items.size()) {
    return reject("more column names than select items");
  }

  DefAnalysis a{Query(&catalog)};

  // Output names are purely syntactic: declared name, else alias, else the
  // referenced column's name.
  std::set<std::string> name_set;
  for (size_t i = 0; i < ast.items.size(); ++i) {
    std::string name;
    if (i < declared_names.size()) {
      name = declared_names[i];
    } else if (!ast.items[i].alias.empty()) {
      name = ast.items[i].alias;
    } else if (ast.items[i].expr->kind == AstExpr::Kind::kColumnRef) {
      name = ast.items[i].expr->name;
    } else if (ast.items[i].expr->kind == AstExpr::Kind::kAggregate) {
      // Unnamed aggregate: a positional default ("sum_1", "count_star_3").
      name = ast.items[i].expr->agg_kind == AggKind::kCountStar
                 ? "count_star"
                 : AggKindName(ast.items[i].expr->agg_kind);
      name += "_" + std::to_string(i);
    } else {
      return reject("select item needs a column name: " +
                    ast.items[i].expr->ToString());
    }
    if (name.rfind("__", 0) == 0) {
      return reject("output name '" + name + "' uses the reserved '__' prefix");
    }
    if (!name_set.insert(name).second) {
      return reject("duplicate output name '" + name + "'");
    }
    a.out_names.push_back(std::move(name));
  }

  AstScript script;
  script.query = std::move(ast);
  AGGVIEW_ASSIGN_OR_RETURN(a.query, BindScript(catalog, script));
  Query& q = a.query;
  if (!q.top_group_by().has_value()) {
    return reject("definition must be an aggregate query (GROUP BY and/or "
                  "aggregates in the select list)");
  }
  a.item_cols = q.select_list();
  for (int rel : q.base_rels()) {
    a.base_tables.push_back(q.range_var(rel).table);
  }

  GroupBySpec& g0 = *q.top_group_by();
  a.grouping_ids = g0.grouping;
  a.num_grouping = static_cast<int>(g0.grouping.size());
  a.scalar = g0.grouping.empty();
  for (ColId g : g0.grouping) {
    AGGVIEW_ASSIGN_OR_RETURN(auto loc, LocateColumn(q, g));
    a.grouping_rel.push_back(loc.first);
    a.grouping_col.push_back(loc.second);
  }

  // Deduplicated partial columns. Keyed by (kind, definition arg ColId) so
  // AVG(x)'s psum/pcount are shared with SUM(x)/COUNT(x), and every SUM gets
  // a COUNT witness for NULL-restoring retraction.
  std::map<std::pair<AggKind, ColId>, int> partial_index;
  auto ensure_partial = [&](AggKind kind, ColId arg) -> Result<int> {
    auto key = std::make_pair(kind, arg);
    auto it = partial_index.find(key);
    if (it != partial_index.end()) return it->second;
    ViewPartial p;
    p.kind = kind;
    if (arg != kInvalidColId) {
      AGGVIEW_ASSIGN_OR_RETURN(auto loc, LocateColumn(q, arg));
      p.arg_rel = loc.first;
      p.arg_col = loc.second;
    }
    int idx = a.num_grouping + static_cast<int>(a.partials.size());
    a.partials.push_back(p);
    partial_index.emplace(key, idx);
    return idx;
  };
  auto ensure_sum = [&](ColId arg) -> Result<int> {
    AGGVIEW_ASSIGN_OR_RETURN(int psum, ensure_partial(AggKind::kSum, arg));
    AGGVIEW_ASSIGN_OR_RETURN(int nn, ensure_partial(AggKind::kCount, arg));
    a.partials[static_cast<size_t>(psum - a.num_grouping)].witness = nn;
    return psum;
  };

  a.def_aggregates = g0.aggregates;
  for (const AggregateCall& call : g0.aggregates) {
    if (call.kind == AggKind::kMedian) {
      return reject("MEDIAN is not decomposable and cannot be materialized");
    }
    AGGVIEW_ASSIGN_OR_RETURN(AggDecomposition d, DecomposeAggregate(call.kind));
    ViewAggSlot slot;
    slot.kind = call.kind;
    slot.combine = d.combine;
    ColId arg = kInvalidColId;
    if (call.kind != AggKind::kCountStar) {
      arg = call.args[0];
      AGGVIEW_ASSIGN_OR_RETURN(auto loc, LocateColumn(q, arg));
      slot.arg_rel = loc.first;
      slot.arg_col = loc.second;
    }
    switch (call.kind) {
      case AggKind::kSum: {
        AGGVIEW_ASSIGN_OR_RETURN(int psum, ensure_sum(arg));
        slot.storage = {psum};
        break;
      }
      case AggKind::kCount: {
        AGGVIEW_ASSIGN_OR_RETURN(int pc, ensure_partial(AggKind::kCount, arg));
        slot.storage = {pc};
        break;
      }
      case AggKind::kCountStar: {
        AGGVIEW_ASSIGN_OR_RETURN(
            int rc, ensure_partial(AggKind::kCountStar, kInvalidColId));
        slot.storage = {rc};
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        AGGVIEW_ASSIGN_OR_RETURN(int p, ensure_partial(call.kind, arg));
        slot.storage = {p};
        break;
      }
      case AggKind::kAvg: {
        AGGVIEW_ASSIGN_OR_RETURN(int psum, ensure_sum(arg));
        AGGVIEW_ASSIGN_OR_RETURN(int pc, ensure_partial(AggKind::kCount, arg));
        slot.storage = {psum, pc};
        break;
      }
      default:
        return reject(std::string("unsupported aggregate '") +
                      AggKindName(call.kind) + "' in a definition");
    }
    a.slots.push_back(std::move(slot));
  }
  AGGVIEW_ASSIGN_OR_RETURN(a.rows_col,
                           ensure_partial(AggKind::kCountStar, kInvalidColId));

  // Mutate the bound definition into partial form: the group-by computes the
  // partial columns and the select list is exactly the backing layout.
  std::vector<AggregateCall> partial_calls;
  std::vector<ColId> partial_outputs;
  for (size_t i = 0; i < a.partials.size(); ++i) {
    const ViewPartial& p = a.partials[i];
    AggregateCall call;
    call.kind = p.kind;
    if (p.kind != AggKind::kCountStar) {
      const RangeVar& rv =
          q.range_var(q.base_rels()[static_cast<size_t>(p.arg_rel)]);
      call.args.push_back(rv.columns[static_cast<size_t>(p.arg_col)]);
    }
    std::string name = p.kind == AggKind::kCountStar
                           ? "__rows"
                           : StrFormat("p%zu_%s", i, AggKindName(p.kind));
    DataType type = call.ResultType(q.columns());
    call.output = q.AddAggregateOutput(call.kind, call.args, name, type);
    partial_outputs.push_back(call.output);
    partial_calls.push_back(std::move(call));
  }
  g0.aggregates = std::move(partial_calls);
  q.select_list() = a.grouping_ids;
  q.select_list().insert(q.select_list().end(), partial_outputs.begin(),
                         partial_outputs.end());
  q.order_by().clear();
  a.content_cols = q.select_list();

  // Backing schema: grouping keys named after their visible output (else
  // "k<i>"), partial columns after their select-list names.
  for (size_t k = 0; k < a.grouping_ids.size(); ++k) {
    ColId g = a.grouping_ids[k];
    std::string name = StrFormat("k%zu", k);
    for (size_t i = 0; i < a.item_cols.size(); ++i) {
      if (a.item_cols[i] == g) {
        name = a.out_names[i];
        break;
      }
    }
    a.backing_schema.AddColumn(
        ColumnSpec(name, q.columns().type(g), q.columns().width(g)));
  }
  for (ColId p : partial_outputs) {
    a.backing_schema.AddColumn(ColumnSpec(
        q.columns().name(p), q.columns().type(p), q.columns().width(p)));
  }

  AGGVIEW_RETURN_NOT_OK(q.Validate());
  return a;
}

}  // namespace aggview
