#ifndef AGGVIEW_EXPR_PREDICATE_H_
#define AGGVIEW_EXPR_PREDICATE_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "expr/scalar_expr.h"

namespace aggview {

/// Comparison operators of the SQL subset.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);
/// The mirrored operator: a < b  <=>  b > a.
CompareOp FlipCompareOp(CompareOp op);

/// Whether a three-way comparison result `cmp` (<0, 0, >0) satisfies `op`.
inline bool CompareOpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// One conjunct: `lhs op rhs`. Queries in the paper's class are conjunctions
/// of comparisons ("cond1 and ... and condn"); conjunctions are represented
/// as std::vector<Predicate> throughout.
struct Predicate {
  ExprPtr lhs;
  CompareOp op = CompareOp::kEq;
  ExprPtr rhs;

  Predicate() = default;
  Predicate(ExprPtr lhs_in, CompareOp op_in, ExprPtr rhs_in)
      : lhs(std::move(lhs_in)), op(op_in), rhs(std::move(rhs_in)) {}

  /// Evaluates to a boolean over `row`: the reference semantics that
  /// BoundConjunction (expr/bound_expr.h), the form operators run, must
  /// reproduce.
  bool Eval(const Row& row, const RowLayout& layout) const;

  /// All ColIds referenced on either side.
  std::set<ColId> Columns() const;

  /// True when every referenced column is in `available`.
  bool BoundBy(const std::set<ColId>& available) const;

  /// True when at least one referenced column is in `cols`.
  bool References(const std::set<ColId>& cols) const;

  /// When this is a simple equijoin `colA = colB`, returns true and fills the
  /// two column ids (in expression order).
  bool AsColumnEquality(ColId* a, ColId* b) const;

  /// When this is `col op literal` (either orientation), returns true and
  /// fills `col`, the effective op as seen from the column side, and `value`.
  bool AsColumnVsLiteral(ColId* col, CompareOp* effective_op,
                         Value* value) const;

  /// Rewrites column references through `mapping`.
  Predicate RemapColumns(const std::unordered_map<ColId, ColId>& mapping) const;

  std::string ToString(const ColumnCatalog& cat) const;
};

/// Union of column sets over a conjunction.
std::set<ColId> ConjunctionColumns(const std::vector<Predicate>& preds);

/// A join's conjunction split against its two input layouts.
struct JoinPredicates {
  /// (left column, right column), once per distinct pair, for every
  /// conjunct `l = r` or `r = l` (AsColumnEquality) equating a column of
  /// the left input with one of the right; a repeat of a pair is implied by
  /// its first occurrence and dropped.
  std::vector<std::pair<ColId, ColId>> keys;
  /// Every other conjunct, in input order.
  std::vector<Predicate> residual;
};

/// The one place that decides which join conjuncts are equi-join keys: the
/// optimizer (which algorithms apply), the plan validator, and the join
/// operator (what it indexes the held input on) all call it.
JoinPredicates SplitJoinPredicates(const std::vector<Predicate>& preds,
                                   const RowLayout& left,
                                   const RowLayout& right);

/// Convenience constructors.
Predicate Cmp(ExprPtr lhs, CompareOp op, ExprPtr rhs);
Predicate EqCols(ColId a, ColId b);

}  // namespace aggview

#endif  // AGGVIEW_EXPR_PREDICATE_H_
