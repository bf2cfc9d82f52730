#ifndef AGGVIEW_EXPR_SCALAR_EXPR_H_
#define AGGVIEW_EXPR_SCALAR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "types/value.h"

namespace aggview {

class ScalarExpr;
using ExprPtr = std::shared_ptr<const ScalarExpr>;

/// Arithmetic operators supported inside scalar expressions.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Immutable scalar expression tree: column references, literals, and
/// arithmetic over them. Predicates (`expr op expr`) live in predicate.h.
///
/// Expressions are shared (shared_ptr<const ...>) because transformations
/// copy predicate lists between operators without deep-copying trees.
class ScalarExpr {
 public:
  enum class Kind { kColumnRef, kLiteral, kArith, kCoalesce };

  virtual ~ScalarExpr() = default;

  Kind kind() const { return kind_; }

  /// Evaluates against `row` whose positions are described by `layout`: the
  /// reference semantics. Operators evaluate the BoundExpr form
  /// (expr/bound_expr.h), which resolves the layout once instead of per
  /// row. Referencing a column absent from the layout is a caller bug and
  /// aborts in debug builds.
  virtual Value Eval(const Row& row, const RowLayout& layout) const = 0;

  /// Adds every referenced ColId to `out`.
  virtual void CollectColumns(std::set<ColId>* out) const = 0;

  /// Result type given the column catalog.
  virtual DataType ResultType(const ColumnCatalog& cat) const = 0;

  /// Pretty form using `cat` for column names.
  virtual std::string ToString(const ColumnCatalog& cat) const = 0;

  /// Structurally replaces column references according to `mapping`
  /// (old -> new). Ids absent from the mapping are left untouched.
  virtual ExprPtr RemapColumns(
      const std::unordered_map<ColId, ColId>& mapping) const = 0;

  /// Downcast helper: when this is a bare column reference, returns its id;
  /// otherwise kInvalidColId.
  ColId AsColumnRef() const;

 protected:
  explicit ScalarExpr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// A reference to a query-global column.
class ColumnRefExpr final : public ScalarExpr {
 public:
  explicit ColumnRefExpr(ColId id) : ScalarExpr(Kind::kColumnRef), id_(id) {}

  ColId id() const { return id_; }

  Value Eval(const Row& row, const RowLayout& layout) const override;
  void CollectColumns(std::set<ColId>* out) const override { out->insert(id_); }
  DataType ResultType(const ColumnCatalog& cat) const override {
    return cat.type(id_);
  }
  std::string ToString(const ColumnCatalog& cat) const override {
    return cat.name(id_);
  }
  ExprPtr RemapColumns(
      const std::unordered_map<ColId, ColId>& mapping) const override;

 private:
  ColId id_;
};

/// A constant.
class LiteralExpr final : public ScalarExpr {
 public:
  explicit LiteralExpr(Value v) : ScalarExpr(Kind::kLiteral), value_(std::move(v)) {}

  const Value& value() const { return value_; }

  Value Eval(const Row&, const RowLayout&) const override { return value_; }
  void CollectColumns(std::set<ColId>*) const override {}
  DataType ResultType(const ColumnCatalog&) const override {
    return value_.type();
  }
  std::string ToString(const ColumnCatalog&) const override {
    return value_.ToString();
  }
  ExprPtr RemapColumns(
      const std::unordered_map<ColId, ColId>&) const override;

 private:
  Value value_;
};

/// Binary arithmetic over numeric operands.
class ArithExpr final : public ScalarExpr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : ScalarExpr(Kind::kArith),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  ArithOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  Value Eval(const Row& row, const RowLayout& layout) const override;
  void CollectColumns(std::set<ColId>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  DataType ResultType(const ColumnCatalog& cat) const override;
  std::string ToString(const ColumnCatalog& cat) const override;
  ExprPtr RemapColumns(
      const std::unordered_map<ColId, ColId>& mapping) const override;

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// COALESCE(inner, fallback): the inner expression unless it is NULL.
/// Exists for the outer-join extension — a flattened COUNT subquery reads
/// COALESCE(cnt, 0) over the outer join's padding rows.
class CoalesceExpr final : public ScalarExpr {
 public:
  CoalesceExpr(ExprPtr inner, ExprPtr fallback)
      : ScalarExpr(Kind::kCoalesce),
        inner_(std::move(inner)),
        fallback_(std::move(fallback)) {}

  const ExprPtr& inner() const { return inner_; }
  const ExprPtr& fallback() const { return fallback_; }

  Value Eval(const Row& row, const RowLayout& layout) const override {
    Value v = inner_->Eval(row, layout);
    return v.is_null() ? fallback_->Eval(row, layout) : v;
  }
  void CollectColumns(std::set<ColId>* out) const override {
    inner_->CollectColumns(out);
    fallback_->CollectColumns(out);
  }
  DataType ResultType(const ColumnCatalog& cat) const override {
    return inner_->ResultType(cat);
  }
  std::string ToString(const ColumnCatalog& cat) const override {
    return "coalesce(" + inner_->ToString(cat) + ", " +
           fallback_->ToString(cat) + ")";
  }
  ExprPtr RemapColumns(
      const std::unordered_map<ColId, ColId>& mapping) const override {
    return std::make_shared<CoalesceExpr>(inner_->RemapColumns(mapping),
                                          fallback_->RemapColumns(mapping));
  }

 private:
  ExprPtr inner_;
  ExprPtr fallback_;
};

/// Binary arithmetic on two values, the semantics of ArithExpr: NULL
/// propagates; INT64 op INT64 stays INT64 for + - * unless the result
/// overflows, which (like any mixed INT64/DOUBLE pair) computes in DOUBLE;
/// division always yields DOUBLE, and x / 0 == 0.0.
Value EvalArith(ArithOp op, const Value& l, const Value& r);

/// Convenience constructors.
ExprPtr Col(ColId id);
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitReal(double v);
ExprPtr LitStr(std::string v);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Coalesce(ExprPtr inner, ExprPtr fallback);

}  // namespace aggview

#endif  // AGGVIEW_EXPR_SCALAR_EXPR_H_
