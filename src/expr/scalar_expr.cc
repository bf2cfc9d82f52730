#include "expr/scalar_expr.h"

#include <cassert>

namespace aggview {

ColId ScalarExpr::AsColumnRef() const {
  if (kind_ != Kind::kColumnRef) return kInvalidColId;
  return static_cast<const ColumnRefExpr*>(this)->id();
}

Value ColumnRefExpr::Eval(const Row& row, const RowLayout& layout) const {
  int idx = layout.IndexOf(id_);
  assert(idx >= 0 && "column not present in row layout");
  return row[static_cast<size_t>(idx)];
}

ExprPtr ColumnRefExpr::RemapColumns(
    const std::unordered_map<ColId, ColId>& mapping) const {
  auto it = mapping.find(id_);
  if (it == mapping.end()) return std::make_shared<ColumnRefExpr>(id_);
  return std::make_shared<ColumnRefExpr>(it->second);
}

ExprPtr LiteralExpr::RemapColumns(
    const std::unordered_map<ColId, ColId>&) const {
  return std::make_shared<LiteralExpr>(value_);
}

Value EvalArith(ArithOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Integer arithmetic stays integral except for division, which promotes to
  // double (SQL-ish, and what AVG-style ratios need). An INT64 result that
  // would overflow is computed in double instead, as a mixed INT64/DOUBLE
  // pair is.
  if (l.is_int() && r.is_int() && op != ArithOp::kDiv) {
    int64_t a = l.AsInt(), b = r.AsInt(), out = 0;
    bool overflow = false;
    switch (op) {
      case ArithOp::kAdd:
        overflow = __builtin_add_overflow(a, b, &out);
        break;
      case ArithOp::kSub:
        overflow = __builtin_sub_overflow(a, b, &out);
        break;
      case ArithOp::kMul:
        overflow = __builtin_mul_overflow(a, b, &out);
        break;
      case ArithOp::kDiv:
        break;
    }
    if (!overflow) return Value::Int(out);
  }
  double a = l.AsNumeric(), b = r.AsNumeric();
  switch (op) {
    case ArithOp::kAdd:
      return Value::Real(a + b);
    case ArithOp::kSub:
      return Value::Real(a - b);
    case ArithOp::kMul:
      return Value::Real(a * b);
    case ArithOp::kDiv:
      return Value::Real(b == 0.0 ? 0.0 : a / b);
  }
  return Value::Real(0.0);
}

Value ArithExpr::Eval(const Row& row, const RowLayout& layout) const {
  return EvalArith(op_, lhs_->Eval(row, layout), rhs_->Eval(row, layout));
}

DataType ArithExpr::ResultType(const ColumnCatalog& cat) const {
  if (op_ == ArithOp::kDiv) return DataType::kDouble;
  DataType l = lhs_->ResultType(cat);
  DataType r = rhs_->ResultType(cat);
  if (l == DataType::kInt64 && r == DataType::kInt64) return DataType::kInt64;
  return DataType::kDouble;
}

std::string ArithExpr::ToString(const ColumnCatalog& cat) const {
  const char* op = "+";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  const std::string lhs = lhs_->ToString(cat);
  return "(" + lhs + " " + op + " " + rhs_->ToString(cat) + ")";
}

ExprPtr ArithExpr::RemapColumns(
    const std::unordered_map<ColId, ColId>& mapping) const {
  return std::make_shared<ArithExpr>(op_, lhs_->RemapColumns(mapping),
                                     rhs_->RemapColumns(mapping));
}

ExprPtr Col(ColId id) { return std::make_shared<ColumnRefExpr>(id); }
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitReal(double v) { return Lit(Value::Real(v)); }
ExprPtr LitStr(std::string v) { return Lit(Value::Str(std::move(v))); }
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Coalesce(ExprPtr inner, ExprPtr fallback) {
  return std::make_shared<CoalesceExpr>(std::move(inner), std::move(fallback));
}

}  // namespace aggview
