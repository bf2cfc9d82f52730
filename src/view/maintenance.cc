#include "view/maintenance.h"

#include <algorithm>
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

/// A partial column over no rows: 0 for counts, NULL otherwise. New groups
/// start from it, and a scalar view's emptied row returns to it.
Value EmptyPartial(const ViewPartial& p) {
  return p.kind == AggKind::kCount || p.kind == AggKind::kCountStar
             ? Value::Int(0)
             : Value::Null();
}

/// Adds (sign +1) or retracts (sign -1) one base row's contribution to a
/// group's partial column. Returns false when the retraction cannot be done
/// arithmetically — a non-NULL MIN/MAX argument leaving the group — so the
/// group's extrema must be re-derived from the base.
bool ApplyRow(const ViewPartial& p, const Row& base_row, int sign,
              Value* slot) {
  if (p.kind == AggKind::kCountStar) {
    *slot = Value::Int(slot->AsInt() + sign);
    return true;
  }
  const Value& arg = base_row[static_cast<size_t>(p.arg_col)];
  if (arg.is_null()) return true;
  switch (p.kind) {
    case AggKind::kCount:
      *slot = Value::Int(slot->AsInt() + sign);
      return true;
    case AggKind::kSum:
      // A NULL sum holds no non-NULL argument, so only an insert meets one.
      *slot = slot->is_null() ? arg : NumAdd(*slot, arg, sign);
      return true;
    default:  // kMin / kMax
      if (sign < 0) return false;
      if (slot->is_null() ||
          (p.kind == AggKind::kMin ? arg.Compare(*slot) < 0
                                   : arg.Compare(*slot) > 0)) {
        *slot = arg;
      }
      return true;
  }
}

bool IsExtremum(const ViewPartial& p) {
  return p.kind == AggKind::kMin || p.kind == AggKind::kMax;
}

/// Maintains one fresh single-relation view in place. The base table has
/// already been mutated; `deleted` holds the removed rows' pre-delete values.
Status MaintainView(Catalog* catalog, ViewDefinition* view,
                    const std::vector<Row>& inserted,
                    const std::vector<Row>& deleted,
                    MaintenanceReport* report) {
  const DefAnalysis& a = *view->def;
  const RangeVar& rv = a.query.range_var(a.query.base_rels()[0]);
  AGGVIEW_ASSIGN_OR_RETURN(
      BoundConjunction where,
      BoundConjunction::Bind(a.query.predicates(), RowLayout(rv.columns),
                             a.query.columns(), "view maintenance"));
  const size_t ng = static_cast<size_t>(a.num_grouping);
  const size_t np = a.partials.size();
  const size_t rows_col = static_cast<size_t>(a.rows_col);

  // mutable_table bumps the backing epoch: cached plans over the old content
  // invalidate whether we edit in place or swap.
  TableDef& backing = catalog->mutable_table(view->backing_table);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(backing.data->row_count()));
  for (int64_t i = 0; i < backing.data->row_count(); ++i) {
    rows.push_back(backing.data->row(i));
  }
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  index.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    index.emplace(Row(rows[i].begin(), rows[i].begin() + ng), i);
  }

  auto group_key = [&](const Row& base_row) {
    Row key;
    key.reserve(ng);
    for (size_t k = 0; k < ng; ++k) {
      key.push_back(base_row[static_cast<size_t>(a.grouping_col[k])]);
    }
    return key;
  };

  std::unordered_set<size_t> touched;
  // Groups whose MIN/MAX partials need a base rescan.
  std::vector<bool> rescan(rows.size(), false);
  for (const Row& r : deleted) {
    if (!where.Eval(r)) continue;
    auto it = index.find(group_key(r));
    if (it == index.end()) {
      return Status::Internal("materialized view '" + view->name +
                              "' is out of sync: deleted row's group missing");
    }
    touched.insert(it->second);
    Row& g = rows[it->second];
    for (size_t k = 0; k < np; ++k) {
      if (!ApplyRow(a.partials[k], r, -1, &g[ng + k])) {
        rescan[it->second] = true;
      }
    }
  }

  for (const Row& r : inserted) {
    if (!where.Eval(r)) continue;
    Row key = group_key(r);
    auto it = index.find(key);
    if (it == index.end()) {
      Row g = key;
      for (const ViewPartial& p : a.partials) g.push_back(EmptyPartial(p));
      it = index.emplace(std::move(key), rows.size()).first;
      rows.push_back(std::move(g));
      if (report != nullptr) report->groups_added++;
    }
    touched.insert(it->second);
    Row& g = rows[it->second];
    for (size_t k = 0; k < np; ++k) ApplyRow(a.partials[k], r, +1, &g[ng + k]);
  }

  // Restore SUM partials to NULL when their COUNT witness dropped to zero:
  // the group no longer holds any non-NULL argument value.
  for (size_t i : touched) {
    Row& g = rows[i];
    for (size_t k = 0; k < np; ++k) {
      const int w = a.partials[k].witness;
      if (w >= 0 && g[static_cast<size_t>(w)].AsInt() == 0) {
        g[ng + k] = Value::Null();
      }
    }
  }

  // Re-derive the MIN/MAX partials of every hit group that stays from the
  // post-delta base rows in one pass. An emptied group of a grouped view is
  // dropped below and needs none.
  auto emptied = [&](const Row& g) { return g[rows_col].AsInt() == 0; };
  rescan.resize(rows.size(), false);  // groups the inserts added
  bool any_rescan = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    rescan[i] = rescan[i] && (a.scalar || !emptied(rows[i]));
    if (!rescan[i]) continue;
    any_rescan = true;
    for (size_t k = 0; k < np; ++k) {
      if (IsExtremum(a.partials[k])) rows[i][ng + k] = Value::Null();
    }
    if (report != nullptr) report->groups_recomputed++;
  }
  if (any_rescan) {
    // WHERE reads the base columns in place; only a passing row is copied.
    const Table& base = *catalog->table(view->base_tables[0]).data;
    std::vector<const Value*> cols;
    for (int c = 0; c < base.schema().num_columns(); ++c) {
      cols.push_back(base.column(c).data());
    }
    for (int64_t i = 0; i < base.row_count(); ++i) {
      if (!where.Eval(ColumnCells{cols.data(), static_cast<size_t>(i)})) {
        continue;
      }
      const Row r = base.row(i);
      auto it = index.find(group_key(r));
      if (it == index.end() || !rescan[it->second]) continue;
      Row& g = rows[it->second];
      for (size_t k = 0; k < np; ++k) {
        if (IsExtremum(a.partials[k])) {
          ApplyRow(a.partials[k], r, +1, &g[ng + k]);
        }
      }
    }
  }

  // Groups emptied by the delta disappear — except a scalar view's single
  // row, which returns to the empty-aggregate values (0 counts, NULL
  // extremes).
  if (a.scalar) {
    for (Row& g : rows) {
      if (!emptied(g)) continue;
      for (size_t k = 0; k < np; ++k) g[ng + k] = EmptyPartial(a.partials[k]);
    }
  } else {
    auto kept_end = std::remove_if(rows.begin(), rows.end(), emptied);
    if (report != nullptr) report->groups_removed += rows.end() - kept_end;
    rows.erase(kept_end, rows.end());
  }

  if (report != nullptr) {
    report->groups_touched += static_cast<int64_t>(touched.size());
    report->views_maintained++;
  }
  backing.data->ReplaceRows(std::move(rows));
  backing.stats = ComputeStats(*backing.data);
  catalog->MarkViewSynced(view);
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
    // DeleteRows ignores duplicate indices, so each distinct index is
    // snapshotted (and later retracted) once.
    std::unordered_set<int64_t> seen;
    for (int64_t i : delta.deletes) {
      if (seen.insert(i).second) deleted.push_back(def.data->row(i));
    }
    AGGVIEW_RETURN_NOT_OK(def.data->DeleteRows(delta.deletes));
    for (const Row& r : delta.inserts) def.data->AppendUnchecked(r);
    def.stats = ComputeStats(*def.data);
  }

  for (auto& [view, was_fresh] : affected) {
    if (view->base_tables.size() != 1 || !was_fresh) {
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
