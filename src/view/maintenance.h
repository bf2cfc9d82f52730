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
  /// Views updated in place by per-group delta merging.
  int views_maintained = 0;
  /// Views left stale (multi-relation, or already stale before the delta);
  /// they need REFRESH before the rewriter will use them again.
  int views_marked_stale = 0;
  int64_t groups_touched = 0;
  int64_t groups_added = 0;
  int64_t groups_removed = 0;
  /// Groups whose MIN/MAX partials were re-derived by a base scan (deletes
  /// cannot be retracted arithmetically for extrema).
  int64_t groups_recomputed = 0;
};

/// Applies `delta` to the base table (bumping its epoch and recomputing its
/// exact statistics), then maintains every materialized view over it:
///
///  - fresh single-relation views are updated incrementally: inserted and
///    deleted rows are filtered by the definition predicates and merged into
///    the per-group partial columns (COUNT/SUM/AVG retract arithmetically,
///    with a COUNT witness restoring SUM/AVG partials to NULL when the last
///    non-NULL argument leaves a group; MIN/MAX partials of groups hit by a
///    delete are re-derived from the base in one batch scan). A group whose
///    hidden row count reaches zero is removed — except in a scalar view,
///    which keeps its single row with empty-aggregate values;
///  - multi-relation views and views that were already stale simply go (or
///    stay) stale via the epoch bookkeeping.
///
/// Maintained views stay fresh (their synced base epochs are re-stamped) and
/// bump their content epoch; their backing table's epoch is bumped too, so
/// cached plans scanning the old content are invalidated.
Status ApplyTableDelta(Catalog* catalog, const TableDelta& delta,
                       MaintenanceReport* report = nullptr);

}  // namespace aggview

#endif  // AGGVIEW_VIEW_MAINTENANCE_H_
