#include "view/maintenance.h"

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/statistics.h"
#include "expr/bound_expr.h"
#include "storage/table.h"
#include "view/definition_analysis.h"

namespace aggview {

namespace {

/// a + sign*b over non-NULL numerics; stays integer on the all-integer path
/// (matching AggAccumulator's exact integer SUM merges).
Value NumAdd(const Value& a, const Value& b, int sign) {
  if (a.is_int() && b.is_int()) {
    return Value::Int(a.AsInt() + sign * b.AsInt());
  }
  return Value::Real(a.AsNumeric() + sign * b.AsNumeric());
}

/// The partial value a single base row contributes to a fresh group.
Value InitPartial(const ViewDefinition::Partial& p, const Row& base_row) {
  switch (p.kind) {
    case AggKind::kCountStar:
      return Value::Int(1);
    case AggKind::kCount:
      return Value::Int(
          base_row[static_cast<size_t>(p.arg_col)].is_null() ? 0 : 1);
    default:  // kSum / kMin / kMax: the argument itself (NULL stays NULL)
      return base_row[static_cast<size_t>(p.arg_col)];
  }
}

/// Merges one inserted base row into a group's partial column.
void MergePartial(const ViewDefinition::Partial& p, const Row& base_row,
                  Value* slot) {
  switch (p.kind) {
    case AggKind::kCountStar:
      *slot = Value::Int(slot->AsInt() + 1);
      return;
    case AggKind::kCount:
      if (!base_row[static_cast<size_t>(p.arg_col)].is_null()) {
        *slot = Value::Int(slot->AsInt() + 1);
      }
      return;
    case AggKind::kSum: {
      const Value& arg = base_row[static_cast<size_t>(p.arg_col)];
      if (arg.is_null()) return;
      *slot = slot->is_null() ? arg : NumAdd(*slot, arg, +1);
      return;
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      const Value& arg = base_row[static_cast<size_t>(p.arg_col)];
      if (arg.is_null()) return;
      if (slot->is_null() ||
          (p.kind == AggKind::kMin ? arg.Compare(*slot) < 0
                                   : arg.Compare(*slot) > 0)) {
        *slot = arg;
      }
      return;
    }
    default:
      return;
  }
}

/// Maintains one fresh single-relation view in place. The base table has
/// already been mutated; `deleted` holds the removed rows' pre-delete values.
Status MaintainView(Catalog* catalog, ViewDefinition* view,
                    const std::vector<Row>& inserted,
                    const std::vector<Row>& deleted,
                    MaintenanceReport* report) {
  AGGVIEW_ASSIGN_OR_RETURN(
      DefAnalysis a,
      AnalyzeViewDefinition(*catalog, view->name, view->definition_sql,
                            view->column_names));
  if (a.partials.size() != view->partials.size() ||
      static_cast<int>(a.grouping_col.size()) != view->num_grouping) {
    return Status::Internal("materialized view '" + view->name +
                            "' definition drifted from its stored layout");
  }
  const int rel = a.query.base_rels()[0];
  const RangeVar& rv = a.query.range_var(rel);
  AGGVIEW_ASSIGN_OR_RETURN(
      BoundConjunction where,
      BoundConjunction::Bind(a.query.predicates(), RowLayout(rv.columns),
                             a.query.columns(), "view maintenance"));
  const size_t ng = static_cast<size_t>(view->num_grouping);
  const size_t np = view->partials.size();

  // mutable_table bumps the backing epoch: cached plans over the old content
  // invalidate whether we edit in place or swap.
  TableDef& backing = catalog->mutable_table(view->backing_table);
  std::vector<Row> rows = backing.data->rows();
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  index.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    index.emplace(Row(rows[i].begin(), rows[i].begin() + ng), i);
  }

  auto group_key = [&](const Row& base_row) {
    Row key;
    key.reserve(ng);
    for (size_t k = 0; k < ng; ++k) {
      key.push_back(
          base_row[static_cast<size_t>(view->grouping_col[k])]);
    }
    return key;
  };

  std::unordered_set<size_t> touched;
  std::unordered_set<size_t> recompute;  // groups needing a MIN/MAX rescan
  bool has_minmax = false;
  for (const ViewDefinition::Partial& p : view->partials) {
    if (p.kind == AggKind::kMin || p.kind == AggKind::kMax) has_minmax = true;
  }

  for (const Row& r : deleted) {
    if (!where.Eval(r)) continue;
    auto it = index.find(group_key(r));
    if (it == index.end()) {
      return Status::Internal("materialized view '" + view->name +
                              "' is out of sync: deleted row's group missing");
    }
    Row& g = rows[it->second];
    touched.insert(it->second);
    for (size_t k = 0; k < np; ++k) {
      const ViewDefinition::Partial& p = view->partials[k];
      Value& slot = g[ng + k];
      switch (p.kind) {
        case AggKind::kCountStar:
          slot = Value::Int(slot.AsInt() - 1);
          break;
        case AggKind::kCount:
          if (!r[static_cast<size_t>(p.arg_col)].is_null()) {
            slot = Value::Int(slot.AsInt() - 1);
          }
          break;
        case AggKind::kSum:
          if (!r[static_cast<size_t>(p.arg_col)].is_null()) {
            slot = NumAdd(slot, r[static_cast<size_t>(p.arg_col)], -1);
          }
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (!r[static_cast<size_t>(p.arg_col)].is_null()) {
            recompute.insert(it->second);
          }
          break;
        default:
          break;
      }
    }
  }

  for (const Row& r : inserted) {
    if (!where.Eval(r)) continue;
    Row key = group_key(r);
    auto it = index.find(key);
    if (it == index.end()) {
      Row g = key;
      g.reserve(ng + np);
      for (const ViewDefinition::Partial& p : view->partials) {
        g.push_back(InitPartial(p, r));
      }
      size_t idx = rows.size();
      rows.push_back(std::move(g));
      index.emplace(std::move(key), idx);
      touched.insert(idx);
      if (report != nullptr) report->groups_added++;
    } else {
      Row& g = rows[it->second];
      touched.insert(it->second);
      for (size_t k = 0; k < np; ++k) {
        MergePartial(view->partials[k], r, &g[ng + k]);
      }
    }
  }

  // Restore SUM partials to NULL when their COUNT witness (same argument)
  // dropped to zero: the group no longer holds any non-NULL argument value.
  for (size_t i : touched) {
    Row& g = rows[i];
    for (size_t k = 0; k < np; ++k) {
      const ViewDefinition::Partial& p = view->partials[k];
      if (p.kind != AggKind::kSum) continue;
      for (size_t w = 0; w < np; ++w) {
        const ViewDefinition::Partial& c = view->partials[w];
        if (c.kind == AggKind::kCount && c.arg_rel == p.arg_rel &&
            c.arg_col == p.arg_col) {
          if (g[ng + w].AsInt() == 0) g[ng + k] = Value::Null();
          break;
        }
      }
    }
  }

  // Groups emptied by the delta disappear — except in a scalar view, whose
  // single row stays with empty-aggregate values (0 counts, NULL extremes).
  const size_t rows_idx =
      static_cast<size_t>(view->rows_col);  // backing column of __rows
  std::vector<Row> final_rows;
  final_rows.reserve(rows.size());
  std::unordered_set<size_t> removed;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i][rows_idx].AsInt() == 0) {
      if (view->scalar) {
        for (size_t k = 0; k < np; ++k) {
          const ViewDefinition::Partial& p = view->partials[k];
          rows[i][ng + k] = (p.kind == AggKind::kCount ||
                             p.kind == AggKind::kCountStar)
                                ? Value::Int(0)
                                : Value::Null();
        }
      } else {
        removed.insert(i);
        if (report != nullptr) report->groups_removed++;
        continue;
      }
    }
    final_rows.push_back(std::move(rows[i]));
  }

  if (has_minmax && !recompute.empty()) {
    // Batch rescan: re-derive the MIN/MAX partials of every surviving hit
    // group from the post-delta base rows in one pass.
    std::unordered_map<Row, size_t, RowHash, RowEq> rescan;
    for (size_t i = 0; i < final_rows.size(); ++i) {
      // Indices shifted by removals; match by key instead.
      Row key(final_rows[i].begin(), final_rows[i].begin() + ng);
      auto it = index.find(key);
      if (it != index.end() && recompute.count(it->second) > 0 &&
          removed.count(it->second) == 0) {
        for (size_t k = 0; k < np; ++k) {
          const ViewDefinition::Partial& p = view->partials[k];
          if (p.kind == AggKind::kMin || p.kind == AggKind::kMax) {
            final_rows[i][ng + k] = Value::Null();
          }
        }
        rescan.emplace(std::move(key), i);
        if (report != nullptr) report->groups_recomputed++;
      }
    }
    const Table& base = *catalog->table(view->base_tables[0]).data;
    for (const Row& r : base.rows()) {
      if (!where.Eval(r)) continue;
      auto it = rescan.find(group_key(r));
      if (it == rescan.end()) continue;
      Row& g = final_rows[it->second];
      for (size_t k = 0; k < np; ++k) {
        const ViewDefinition::Partial& p = view->partials[k];
        if (p.kind == AggKind::kMin || p.kind == AggKind::kMax) {
          MergePartial(p, r, &g[ng + k]);
        }
      }
    }
  }

  if (report != nullptr) {
    report->groups_touched += static_cast<int64_t>(touched.size());
    report->views_maintained++;
  }
  backing.data->ReplaceRows(std::move(final_rows));
  backing.stats = ComputeStats(*backing.data);
  view->epoch.fetch_add(1, std::memory_order_acq_rel);
  view->synced_base_epochs.clear();
  std::set<TableId> seen;
  for (TableId t : view->base_tables) {
    if (seen.insert(t).second) {
      view->synced_base_epochs.emplace_back(t, catalog->table_epoch(t));
    }
  }
  return Status::OK();
}

}  // namespace

Status ApplyTableDelta(Catalog* catalog, const TableDelta& delta,
                       MaintenanceReport* report) {
  if (delta.table < 0 || delta.table >= catalog->num_tables()) {
    return Status::InvalidArgument("delta references an unknown table");
  }
  if (catalog->table(delta.table).data == nullptr) {
    return Status::InvalidArgument("delta target table has no data loaded");
  }
  {
    const TableDef& def = catalog->table(delta.table);
    const int64_t n = def.data->row_count();
    for (int64_t i : delta.deletes) {
      if (i < 0 || i >= n) {
        return Status::InvalidArgument("delete index out of range");
      }
    }
    for (const Row& r : delta.inserts) {
      if (static_cast<int>(r.size()) != def.schema.num_columns()) {
        return Status::InvalidArgument("inserted row arity does not match");
      }
      for (int c = 0; c < def.schema.num_columns(); ++c) {
        const Value& v = r[static_cast<size_t>(c)];
        if (!v.is_null() && v.type() != def.schema.column(c).type) {
          return Status::InvalidArgument("type mismatch in inserted column '" +
                                         def.schema.column(c).name + "'");
        }
      }
    }
  }

  // Freshness must be judged against the pre-delta epochs.
  std::vector<std::pair<ViewDefinition*, bool>> affected;  // view, was_fresh
  for (const auto& view : catalog->views()) {
    bool uses = false;
    for (TableId t : view->base_tables) uses |= (t == delta.table);
    if (uses) affected.emplace_back(view.get(), catalog->IsViewFresh(*view));
  }

  // Snapshot deleted row values, then mutate the base (epoch bump + exact
  // stats recompute, which the dataflow verifier requires).
  std::vector<Row> deleted;
  deleted.reserve(delta.deletes.size());
  {
    TableDef& def = catalog->mutable_table(delta.table);
    for (int64_t i : delta.deletes) deleted.push_back(def.data->row(i));
    AGGVIEW_RETURN_NOT_OK(def.data->DeleteRows(delta.deletes));
    for (const Row& r : delta.inserts) def.data->AppendUnchecked(r);
    def.stats = ComputeStats(*def.data);
  }

  for (auto& [view, was_fresh] : affected) {
    if (!view->incremental || !was_fresh) {
      if (report != nullptr) report->views_marked_stale++;
      // The backing content is untouched but the view stopped being a valid
      // answer source; bump the epoch so plans stamped "v:<name>" invalidate
      // instead of serving pre-delta bytes from the plan cache.
      view->epoch.fetch_add(1, std::memory_order_acq_rel);
      continue;  // stale via the epoch mismatch; REFRESH re-materializes
    }
    AGGVIEW_RETURN_NOT_OK(
        MaintainView(catalog, view, delta.inserts, deleted, report));
  }
  return Status::OK();
}

}  // namespace aggview
