#ifndef AGGVIEW_VIEW_MAINTENANCE_H_
#define AGGVIEW_VIEW_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "types/value.h"

namespace aggview {

/// A batch mutation of one base table: rows to delete (indices into the
/// table's current row store; a repeated index deletes its row once) and
/// rows to append (positionally aligned with the schema; NULLs allowed).
struct TableDelta {
  TableId table = -1;
  std::vector<Row> inserts;
  std::vector<int64_t> deletes;
};

/// Counters of one ApplyTableDelta call (all views combined).
struct MaintenanceReport {
  /// Views updated in place by the signed merge of their delta queries.
  int views_maintained = 0;
  /// Views left stale: those that read the delta table more than once (a
  /// self-join), and those already stale before the delta. They need
  /// REFRESH before the rewriter will use them again.
  int views_marked_stale = 0;
  int64_t groups_touched = 0;
  int64_t groups_added = 0;
  int64_t groups_removed = 0;
  /// Groups whose MIN/MAX partials were re-derived by a run of the
  /// definition over the base (deletes cannot be retracted arithmetically
  /// for extrema).
  int64_t groups_recomputed = 0;
};

/// Applies `delta` to the base table R (bumping its epoch and recomputing
/// its exact statistics), then maintains every materialized view over it.
///
/// A fresh view whose FROM lists R exactly once is maintained by one delta
/// query per side, ΔV = G(ΔR ⋈ S …): the view's partial-form definition with
/// R replaced by a transient relation of the deleted rows (pre-delete
/// values), then of the inserted rows, every other relation its current
/// table. The paper's optimizer plans each one, so pre-aggregating ΔR before
/// the join is a costed choice. The results merge into the backing groups
/// with signs: COUNT/SUM/AVG partials add or subtract, with a COUNT witness
/// restoring SUM/AVG partials to NULL when the last non-NULL argument leaves
/// a group; MIN/MAX partials take the extremum on insert, and groups whose
/// non-NULL extremum is retracted are re-derived by one run of the
/// definition over the base. A group whose hidden row count reaches zero is
/// removed, except in a scalar view, which keeps its single row with
/// empty-aggregate values.
///
/// A view that reads R more than once (a self-join), or that was already
/// stale, goes (or stays) stale via the epoch bookkeeping.
///
/// Maintained views stay fresh (their synced base epochs are re-stamped) and
/// bump their content epoch; their backing table's epoch is bumped too, so
/// cached plans scanning the old content are invalidated.
Status ApplyTableDelta(Catalog* catalog, const TableDelta& delta,
                       MaintenanceReport* report = nullptr);

}  // namespace aggview

#endif  // AGGVIEW_VIEW_MAINTENANCE_H_
