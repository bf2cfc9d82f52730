#include "view/maintenance.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/statistics.h"
#include "optimizer/aggview_optimizer.h"
#include "optimizer/traditional.h"
#include "storage/table.h"
#include "view/definition_analysis.h"
#include "view/matview.h"

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

/// Folds one group's partial `d`, computed by a delta query, into the
/// group's backing partial `slot`: added (sign +1, the inserted rows) or
/// retracted (sign -1, the deleted rows). COUNT, COUNT(*) and SUM partials
/// add or subtract; a MIN/MAX partial takes the extremum on insert. Returns
/// false when a non-NULL extremum is retracted: that cannot be undone
/// arithmetically, so the group's MIN/MAX partials are re-derived.
bool MergePartial(const ViewPartial& p, const Value& d, int sign,
                  Value* slot) {
  if (d.is_null()) return true;  // SUM/MIN/MAX over no non-NULL argument
  switch (p.kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
    case AggKind::kSum:
      // A NULL sum holds no non-NULL argument, so only an insert meets one.
      *slot = slot->is_null() ? d : NumAdd(*slot, d, sign);
      return true;
    default:  // kMin / kMax
      if (sign < 0) return false;
      if (slot->is_null() || (p.kind == AggKind::kMin ? d.Compare(*slot) < 0
                                                      : d.Compare(*slot) > 0)) {
        *slot = d;
      }
      return true;
  }
}

bool IsExtremum(const ViewPartial& p) {
  return p.kind == AggKind::kMin || p.kind == AggKind::kMax;
}

/// A scratch catalog for one view's delta queries, with TableIds aligned to
/// `live`'s. Each table the view reads is a copy of its live definition that
/// shares the live rows through `data` (no copy); every other slot holds only
/// the table's name. DeltaContent swaps the delta table's rows in.
Result<std::unique_ptr<Catalog>> DeltaCatalog(const Catalog& live,
                                              const ViewDefinition& view) {
  auto scratch = std::make_unique<Catalog>();
  const auto& reads = view.base_tables;
  for (TableId t = 0; t < live.num_tables(); ++t) {
    TableDef def;
    if (std::find(reads.begin(), reads.end(), t) != reads.end()) {
      def = live.table(t);
    } else {
      def.name = live.table(t).name;
    }
    AGGVIEW_RETURN_NOT_OK(scratch->AddTable(std::move(def)).status());
  }
  return scratch;
}

/// ΔV = G(ΔR ⋈ S …): runs the partial-form definition `a`, bound against
/// `scratch`, with table `r` holding exactly `rows`. The plan comes from the
/// paper's optimizer, so pre-aggregating ΔR before the join is a costed
/// choice; it executes serially. Returns the rows in backing-column order.
Result<std::vector<Row>> DeltaContent(Catalog* scratch, const DefAnalysis& a,
                                      TableId r, const std::vector<Row>& rows) {
  TableDef& def = scratch->mutable_table(r);
  auto table = std::make_shared<Table>(def.schema);
  table->Reserve(static_cast<int64_t>(rows.size()));
  for (const Row& row : rows) table->AppendUnchecked(row);
  def.stats = ComputeStats(*table);
  def.data = std::move(table);
  AGGVIEW_ASSIGN_OR_RETURN(
      OptimizedQuery opt, OptimizeQueryWithAggViews(a.query, OptimizerOptions{}));
  return ExecuteViewContent(a, opt, ExecContext{});
}

/// Maintains one fresh view that reads table `r` exactly once. The base
/// table has already been mutated; `deleted` holds the removed rows'
/// pre-delete values. The delta queries ΔV- (over `deleted`) and ΔV+ (over
/// `inserted`) are merged into the backing groups with MergePartial.
Status MaintainView(Catalog* catalog, ViewDefinition* view, TableId r,
                    const std::vector<Row>& inserted,
                    const std::vector<Row>& deleted,
                    MaintenanceReport* report) {
  const DefAnalysis& a = *view->def;
  std::vector<Row> delta_rows[2];  // ΔV-, ΔV+
  {
    AGGVIEW_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> scratch,
                             DeltaCatalog(*catalog, *view));
    AGGVIEW_ASSIGN_OR_RETURN(
        DefAnalysis delta_def,
        AnalyzeViewDefinition(*scratch, view->name, view->definition_sql,
                              view->column_names));
    const std::vector<Row>* sides[2] = {&deleted, &inserted};
    for (int s = 0; s < 2; ++s) {
      if (sides[s]->empty()) continue;
      AGGVIEW_ASSIGN_OR_RETURN(
          delta_rows[s], DeltaContent(scratch.get(), delta_def, r, *sides[s]));
    }
  }
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

  std::unordered_set<size_t> touched;
  // Groups whose MIN/MAX partials need a rescan.
  std::vector<bool> rescan(rows.size(), false);
  for (int s = 0; s < 2; ++s) {
    const int sign = s == 0 ? -1 : +1;
    for (const Row& d : delta_rows[s]) {
      // A scalar delta query returns its one row even when no delta row
      // passed the definition's WHERE.
      if (d[rows_col].AsInt() == 0) continue;
      Row key(d.begin(), d.begin() + ng);
      auto it = index.find(key);
      if (it == index.end()) {
        if (sign < 0) {
          return Status::Internal(
              "materialized view '" + view->name +
              "' is out of sync: deleted rows' group missing");
        }
        Row g = key;
        for (const ViewPartial& p : a.partials) g.push_back(EmptyPartial(p));
        it = index.emplace(std::move(key), rows.size()).first;
        rows.push_back(std::move(g));
        rescan.push_back(false);
        if (report != nullptr) report->groups_added++;
      }
      touched.insert(it->second);
      Row& g = rows[it->second];
      for (size_t k = 0; k < np; ++k) {
        if (!MergePartial(a.partials[k], d[ng + k], sign, &g[ng + k])) {
          rescan[it->second] = true;
        }
      }
    }
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

  // Re-derive the MIN/MAX partials of every hit group that stays: one run of
  // the partial-form definition over the post-delta base, of which only the
  // rescanned groups' extrema are copied. An emptied group of a grouped view
  // is dropped below and needs none.
  auto emptied = [&](const Row& g) { return g[rows_col].AsInt() == 0; };
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
    AGGVIEW_ASSIGN_OR_RETURN(OptimizedQuery opt, OptimizeTraditional(a.query));
    AGGVIEW_ASSIGN_OR_RETURN(std::vector<Row> full,
                             ExecuteViewContent(a, opt, ExecContext{}));
    for (const Row& f : full) {
      auto it = index.find(Row(f.begin(), f.begin() + ng));
      if (it == index.end() || !rescan[it->second]) continue;
      Row& g = rows[it->second];
      for (size_t k = 0; k < np; ++k) {
        if (IsExtremum(a.partials[k])) g[ng + k] = f[ng + k];
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
    const auto& reads = view->base_tables;
    if (std::count(reads.begin(), reads.end(), delta.table) != 1 ||
        !was_fresh) {
      if (report != nullptr) report->views_marked_stale++;
      // The backing content is untouched but the view stopped being a valid
      // answer source; bump the epoch so plans stamped "v:<name>" invalidate
      // instead of serving pre-delta bytes from the plan cache.
      view->epoch.fetch_add(1, std::memory_order_acq_rel);
      continue;  // stale via the epoch mismatch; REFRESH re-materializes
    }
    AGGVIEW_RETURN_NOT_OK(MaintainView(catalog, view, delta.table,
                                       delta.inserts, deleted, report));
  }
  return Status::OK();
}

}  // namespace aggview
