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

struct DefAnalysis;  // view/definition_analysis.h

/// A materialized aggregate view: its definition (the SQL text, and the
/// bound and analyzed form CREATE derived from it), the backing table holding
/// one row per group (grouping keys first, then partial-aggregate columns,
/// including a hidden row count), and the freshness bookkeeping the plan
/// cache and the rewriter key on.
struct ViewDefinition {
  std::string name;
  /// The definition SELECT text (everything after AS).
  std::string definition_sql;
  /// The definition as analyzed once at CREATE: grouping keys, aggregate
  /// slots, partial columns and the partial-form query. Maintenance, REFRESH
  /// and the rewriter read it; the catalog itself never does, so it does not
  /// depend on the parser.
  std::shared_ptr<const DefAnalysis> def;
  /// User-visible output column names, positional with the SELECT items
  /// (the binder inlines FROM-referenced views from these).
  std::vector<std::string> column_names;
  /// Backing table registered in the catalog ("__mv_<name>__<n>"); its
  /// primary key is exactly the grouping prefix.
  TableId backing_table = -1;
  /// Catalog table of each definition FROM entry, in FROM order.
  /// Single-relation views are delta-maintainable; multi-relation views go
  /// stale on base change and need REFRESH.
  std::vector<TableId> base_tables;
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

  /// Records that the view's content now reflects the current base data:
  /// bumps its content epoch and re-stamps its synced base epochs.
  void MarkViewSynced(ViewDefinition* view);

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
