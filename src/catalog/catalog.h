#ifndef AGGVIEW_CATALOG_CATALOG_H_
#define AGGVIEW_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/statistics.h"
#include "common/result.h"
#include "common/status.h"
#include "expr/aggregate.h"
#include "types/schema.h"

namespace aggview {

class Table;

/// Identifies a table in the catalog.
using TableId = int32_t;

/// A declared foreign-key relationship: columns of the referencing table
/// point at a key of the referenced table. The pull-up transformation uses
/// this to elide the referenced table's key from the grouping columns
/// (Section 3, "In case the join J1 is a foreign key join...").
struct ForeignKey {
  TableId referencing_table = -1;
  std::vector<int> referencing_columns;
  TableId referenced_table = -1;
  std::vector<int> referenced_columns;  // must form a key of referenced_table
};

/// Definition of a base table: schema, keys, statistics, and (optionally) the
/// in-memory data.
struct TableDef {
  TableId id = -1;
  std::string name;
  Schema schema;
  /// Primary key: column indices. Every table has one (the paper notes a
  /// query engine may fall back to internal tuple ids; we require declared
  /// keys in the catalog and the storage layer can synthesize a rowid key).
  std::vector<int> primary_key;
  /// Additional unique keys.
  std::vector<std::vector<int>> unique_keys;
  TableStats stats;
  /// Populated when data is loaded; optimization-only catalogs may leave this
  /// null and provide stats directly.
  std::shared_ptr<Table> data;

  /// True when `columns` (table-local indices, any order) is a superset of
  /// the primary key or of some unique key.
  bool CoversKey(const std::vector<int>& columns) const;
};

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
  /// Backing-table column holding the count of non-NULL argument values of
  /// the group — the retraction witness delta maintenance needs to restore
  /// SUM/AVG to NULL when the last non-NULL argument leaves a group. -1 for
  /// MIN/MAX (delete falls back to group recompute).
  int nn_count = -1;
  /// Definition-space rendering ("avg(e.sal)") for diagnostics.
  std::string display;
};

/// A materialized aggregate view: its definition (kept as SQL and re-bound on
/// demand, so the catalog does not depend on the parser), the backing table
/// holding one row per group (grouping keys first, then partial-aggregate
/// slots, then a hidden row count), and the freshness bookkeeping the plan
/// cache and the rewriter key on.
struct ViewDefinition {
  std::string name;
  /// The definition SELECT text (everything after AS).
  std::string definition_sql;
  /// User-visible output column names, positional with the SELECT items.
  std::vector<std::string> column_names;
  /// Backing table registered in the catalog ("__mv_<name>__<n>"); its
  /// primary key is exactly the grouping prefix.
  TableId backing_table = -1;
  /// Catalog table of each definition FROM entry, in FROM order.
  std::vector<TableId> base_tables;
  /// Backing columns [0, num_grouping) are the grouping keys, in definition
  /// GROUP BY order; per key the definition relation and table-local column.
  int num_grouping = 0;
  std::vector<int> grouping_rel;
  std::vector<int> grouping_col;
  /// One slot per definition aggregate, in definition order.
  std::vector<ViewAggSlot> slots;
  /// Backing partial columns [num_grouping, ...), positionally: the
  /// partial-aggregate kind and argument stored there (definition FROM
  /// position + table-local column; both -1 for the COUNT(*) partial).
  /// Slots reference these by backing column index; shared partials (AVG
  /// and SUM over the same argument) appear once. Delta maintenance merges
  /// and retracts at this level.
  struct Partial {
    AggKind kind = AggKind::kCountStar;
    int arg_rel = -1;
    int arg_col = -1;
  };
  std::vector<Partial> partials;
  /// Backing column of the hidden COUNT(*) ("__rows"): detects a delta
  /// emptying a group. Always present, shared with a COUNT(*) slot if any.
  int rows_col = -1;
  /// Whether the view is scalar (no GROUP BY): the backing table then always
  /// holds exactly one row, kept (with empty-aggregate values) even when the
  /// base goes empty — the PR 1 scalar-aggregate semantics.
  bool scalar = false;
  /// Single-relation views are delta-maintainable; multi-relation views go
  /// stale on base change and need REFRESH.
  bool incremental = false;
  /// Bumped on every content change (materialize, refresh, delta apply);
  /// view-backed cached plans stamp it.
  std::atomic<int64_t> epoch{0};
  /// Per distinct base table: the table's epoch the content was computed
  /// from. The view is fresh iff every entry matches the table's current
  /// epoch.
  std::vector<std::pair<TableId, int64_t>> synced_base_epochs;
};

/// The schema registry: tables, keys, foreign keys, materialized views.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a table; assigns and returns its id. Fails on duplicate name
  /// or a primary key referencing nonexistent columns.
  Result<TableId> AddTable(TableDef def);

  /// Declares a foreign key. Fails unless the referenced columns form a key.
  Status AddForeignKey(ForeignKey fk);

  const TableDef& table(TableId id) const {
    return *tables_[static_cast<size_t>(id)];
  }
  /// Mutable access to a table definition (schema evolution, stats refresh,
  /// data (re)load). Any mutable access is presumed to mutate and bumps both
  /// the global stats epoch and the table's own epoch. Plans cached against
  /// the old catalog state that touch this table are invalidated; plans over
  /// other tables survive via their per-table dependency stamps (the plan
  /// cache counts those as avoided invalidations). Read-only callers (the
  /// whole serve path: binder, optimizer, executor) must use the const
  /// table() overload instead; steady-state serving never bumps the epoch
  /// (asserted in server_test).
  TableDef& mutable_table(TableId id) {
    BumpTableEpoch(id);
    return *tables_[static_cast<size_t>(id)];
  }
  int num_tables() const { return static_cast<int>(tables_.size()); }

  /// Monotonic version of the catalog's schema, statistics and data.
  /// Starts at 0 and is bumped by AddTable, AddForeignKey, every
  /// mutable_table access, and explicit BumpStatsEpoch calls. The Server's
  /// plan cache keys on per-table and per-view epochs instead, so only
  /// BumpTableEpoch (not a bare BumpStatsEpoch) invalidates its plans.
  /// Reads are safe concurrent with query serving; mutations themselves
  /// must be quiesced relative to running queries.
  int64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_acquire);
  }

  /// Declares "something this catalog describes changed" without going
  /// through a mutator (e.g. rows appended through a Table pointer obtained
  /// earlier).
  void BumpStatsEpoch() {
    stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Monotonic version of one table's schema/statistics/data. Starts at 0;
  /// bumped by mutable_table and BumpTableEpoch. Cached plans stamp the
  /// epoch of every table they scan, so a mutation invalidates exactly the
  /// plans that touched the mutated table.
  int64_t table_epoch(TableId id) const {
    return table_epochs_[static_cast<size_t>(id)].load(
        std::memory_order_acquire);
  }

  /// Bumps one table's epoch (and the global stats epoch, which remains the
  /// conservative summary "something changed").
  void BumpTableEpoch(TableId id) {
    table_epochs_[static_cast<size_t>(id)].fetch_add(1,
                                                     std::memory_order_acq_rel);
    BumpStatsEpoch();
  }

  Result<TableId> FindTable(const std::string& name) const;

  // --- Materialized views -------------------------------------------------

  /// Registers a materialized view (created via view/matview.h, which also
  /// builds and fills the backing table). Fails on a duplicate name or a
  /// name colliding with a base table.
  Status AddView(std::unique_ptr<ViewDefinition> view);

  /// The view named `name`, or null. The mutable overload is for the
  /// maintenance engine only; it does not bump any epoch by itself.
  const ViewDefinition* FindView(const std::string& name) const;
  ViewDefinition* FindMutableView(const std::string& name);

  /// Drops the view and frees its backing data (the backing TableDef slot
  /// stays allocated — TableIds are positional — but holds no rows).
  Status DropView(const std::string& name);

  int num_views() const { return static_cast<int>(views_.size()); }
  const std::vector<std::unique_ptr<ViewDefinition>>& views() const {
    return views_;
  }

  /// True when every base table's current epoch matches the view's synced
  /// snapshot — i.e. the backing content reflects the current base data.
  bool IsViewFresh(const ViewDefinition& view) const;

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// True when a declared FK maps `referencing_cols` of `referencing` exactly
  /// onto a key of `referenced` (order-insensitive pairing of (ref_col,
  /// key_col) pairs).
  bool IsForeignKeyJoin(TableId referencing,
                        const std::vector<int>& referencing_cols,
                        TableId referenced,
                        const std::vector<int>& referenced_cols) const;

 private:
  std::vector<std::unique_ptr<TableDef>> tables_;
  std::vector<ForeignKey> foreign_keys_;
  std::vector<std::unique_ptr<ViewDefinition>> views_;
  // Atomic so serving-layer epoch reads need no lock; see stats_epoch().
  std::atomic<int64_t> stats_epoch_{0};
  // One epoch per table, same index as tables_. A deque because atomics are
  // immovable and table registration must not relocate live entries.
  std::deque<std::atomic<int64_t>> table_epochs_;
};

}  // namespace aggview

#endif  // AGGVIEW_CATALOG_CATALOG_H_
