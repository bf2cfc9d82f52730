#ifndef AGGVIEW_ALGEBRA_QUERY_H_
#define AGGVIEW_ALGEBRA_QUERY_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "expr/aggregate.h"
#include "expr/predicate.h"

namespace aggview {

/// One occurrence of a base table in a query (a range variable). Each
/// occurrence owns a fresh set of query-global column ids, so self-joins
/// (Example 1's `emp e1, emp e2`) are unambiguous.
struct RangeVar {
  /// Index of this range variable within Query::range_vars().
  int id = -1;
  TableId table = -1;
  std::string alias;
  /// Query-global ids, positionally aligned with the table schema.
  std::vector<ColId> columns;
  /// Synthetic tuple-id column, allocated only when the table declares no
  /// key (the paper, Section 3: "In the absence of a declared primary key,
  /// the query engine can use the internal tuple id as a key"). The scan
  /// operator materializes it as the row's position.
  ColId rowid = kInvalidColId;
  /// Set by the materialized-view rewriter when this occurrence was replaced
  /// by a view scan: the range variable stays allocated (its column ids may
  /// live on, reused by the backing scan) but belongs to no block and is
  /// never scanned. Validate() requires detached vars in zero blocks.
  bool detached = false;

  std::set<ColId> ColumnSet() const {
    std::set<ColId> out(columns.begin(), columns.end());
    if (rowid != kInvalidColId) out.insert(rowid);
    return out;
  }
};

/// One ORDER BY key of the final result.
struct OrderKey {
  ColId column = kInvalidColId;
  bool descending = false;
};

/// A group-by operator: grouping columns, aggregate computations, and the
/// HAVING conjunction (predicates over grouping columns and aggregate
/// outputs). The operator's output columns are `grouping` followed by the
/// aggregate outputs.
struct GroupBySpec {
  std::vector<ColId> grouping;
  std::vector<AggregateCall> aggregates;
  std::vector<Predicate> having;

  std::vector<ColId> OutputColumns() const;
  std::set<ColId> AggOutputSet() const;
  std::set<ColId> AggArgSet() const;
  std::string ToString(const ColumnCatalog& cat) const;
};

/// A select-project-join block: a set of range variables (by id) and a
/// conjunction of predicates (local selections and join predicates are not
/// distinguished structurally; classification is positional — a predicate
/// bound by one relation's columns is a selection).
struct SpjBlock {
  std::vector<int> rels;
  std::vector<Predicate> predicates;
};

/// An aggregate view Qi = Gi(Vi): a single-block SPJ query with a group-by
/// and optional HAVING (paper Section 2).
struct AggView {
  std::string name;
  SpjBlock spj;
  GroupBySpec group_by;

  /// The view's visible output columns (grouping columns + agg outputs).
  std::vector<ColId> OutputColumns() const { return group_by.OutputColumns(); }
};

/// The canonical query form of Figure 3:
///
///   G0( Q1 ⋈ ... ⋈ Qm ⋈ B1 ⋈ ... ⋈ Bn ),  Qi = Gi(Vi)
///
/// - `views()` are the aggregate views Q1..Qm;
/// - `base_rels()` are B1..Bn (ids of range variables in the top block);
/// - `predicates()` is the top block's conjunction — it may reference base
///   columns, view grouping columns, and view aggregate outputs;
/// - `top_group_by()` is the optional G0 (+ HAVING);
/// - `select_list()` are the output columns.
///
/// All range variables — those inside views and those in the top block —
/// live in one array so transformations can move them between blocks by id.
class Query {
 public:
  explicit Query(const Catalog* catalog) : catalog_(catalog) {}

  // Queries are copied by the transformations (pull-up returns a rewritten
  // copy), so keep them copyable.
  Query(const Query&) = default;
  Query& operator=(const Query&) = default;
  Query(Query&&) = default;
  Query& operator=(Query&&) = default;

  const Catalog& catalog() const { return *catalog_; }
  ColumnCatalog& columns() { return columns_; }
  const ColumnCatalog& columns() const { return columns_; }

  /// Adds an occurrence of catalog table `table` under `alias`, allocating
  /// query-global column ids named "<alias>.<col>". The new range variable is
  /// NOT placed in any block; callers add its id to a view's SPJ or to the
  /// top block.
  int AddRangeVar(TableId table, const std::string& alias);

  /// Like AddRangeVar, but positions with a valid ColId in `reuse` adopt
  /// that existing column instead of allocating a fresh one. The
  /// materialized-view rewriter uses this to make the backing-table scan
  /// produce the very column ids the query already references (the matched
  /// grouping columns of the replaced relations, which are detached and no
  /// longer produce them). `reuse` may be shorter than the schema; missing
  /// or invalid entries allocate fresh ids named "<alias>.<col>".
  int AddRangeVarWithReuse(TableId table, const std::string& alias,
                           const std::vector<ColId>& reuse);

  /// Marks a range variable as replaced by the view rewriter; see
  /// RangeVar::detached.
  void DetachRangeVar(int id) {
    range_vars_[static_cast<size_t>(id)].detached = true;
  }

  const RangeVar& range_var(int id) const {
    return range_vars_[static_cast<size_t>(id)];
  }
  int num_range_vars() const { return static_cast<int>(range_vars_.size()); }

  /// ColId of `alias`.`column_name`; BindError when absent.
  Result<ColId> ResolveColumn(const std::string& alias,
                              const std::string& column_name) const;

  /// Allocates the output column of an aggregate, named e.g. "avg(e2.sal)".
  ColId AddAggregateOutput(AggKind kind, const std::vector<ColId>& args,
                           const std::string& display_name, DataType type);

  std::vector<AggView>& views() { return views_; }
  const std::vector<AggView>& views() const { return views_; }

  std::vector<int>& base_rels() { return base_rels_; }
  const std::vector<int>& base_rels() const { return base_rels_; }

  std::vector<Predicate>& predicates() { return predicates_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  std::optional<GroupBySpec>& top_group_by() { return top_group_by_; }
  const std::optional<GroupBySpec>& top_group_by() const {
    return top_group_by_;
  }

  std::vector<ColId>& select_list() { return select_list_; }
  const std::vector<ColId>& select_list() const { return select_list_; }

  std::vector<OrderKey>& order_by() { return order_by_; }
  const std::vector<OrderKey>& order_by() const { return order_by_; }

  /// Union of the column sets of the given range-variable ids.
  std::set<ColId> ColumnsOfRels(const std::vector<int>& rel_ids) const;

  /// Structural sanity checks: every predicate bound by the columns visible
  /// in its block, select list visible at the top, group-by arity, etc.
  Status Validate() const;

  /// Multi-line rendering of the canonical form (for examples and tests).
  std::string ToString() const;

 private:
  const Catalog* catalog_;
  ColumnCatalog columns_;
  std::vector<RangeVar> range_vars_;
  std::vector<AggView> views_;
  std::vector<int> base_rels_;
  std::vector<Predicate> predicates_;
  std::optional<GroupBySpec> top_group_by_;
  std::vector<ColId> select_list_;
  std::vector<OrderKey> order_by_;
};

}  // namespace aggview

#endif  // AGGVIEW_ALGEBRA_QUERY_H_
