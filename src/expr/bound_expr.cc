#include "expr/bound_expr.h"

#include <string>
#include <utility>

namespace aggview {

namespace {

int Sign(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int Sign(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

Status MissingColumn(const char* op) {
  return Status::Internal(std::string(op) +
                          ": predicate column missing from input layout");
}

}  // namespace

// ---------------------------------------------------------------- BoundExpr

Result<BoundExpr> BoundExpr::Bind(const ScalarExpr& expr,
                                  const RowLayout& layout) {
  BoundExpr out;
  switch (expr.kind()) {
    case ScalarExpr::Kind::kColumnRef:
      out.slot_ = layout.IndexOf(static_cast<const ColumnRefExpr&>(expr).id());
      if (out.slot_ < 0) return MissingColumn("expression");
      return out;
    case ScalarExpr::Kind::kLiteral:
      out.literal_ = static_cast<const LiteralExpr&>(expr).value();
      return out;
    case ScalarExpr::Kind::kArith:
    case ScalarExpr::Kind::kCoalesce:
      AGGVIEW_RETURN_NOT_OK(out.BindNode(expr, layout).status());
      return out;
  }
  return Status::Internal("bind: unknown expression kind");
}

Result<size_t> BoundExpr::BindNode(const ScalarExpr& expr,
                                   const RowLayout& layout) {
  Node n;
  n.kind = expr.kind();
  switch (expr.kind()) {
    case ScalarExpr::Kind::kColumnRef:
      n.slot = layout.IndexOf(static_cast<const ColumnRefExpr&>(expr).id());
      if (n.slot < 0) return MissingColumn("expression");
      break;
    case ScalarExpr::Kind::kLiteral:
      n.literal = static_cast<const LiteralExpr&>(expr).value();
      break;
    case ScalarExpr::Kind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      n.op = arith.op();
      AGGVIEW_ASSIGN_OR_RETURN(n.lhs, BindNode(*arith.lhs(), layout));
      AGGVIEW_ASSIGN_OR_RETURN(n.rhs, BindNode(*arith.rhs(), layout));
      break;
    }
    case ScalarExpr::Kind::kCoalesce: {
      const auto& coalesce = static_cast<const CoalesceExpr&>(expr);
      AGGVIEW_ASSIGN_OR_RETURN(n.lhs, BindNode(*coalesce.inner(), layout));
      AGGVIEW_ASSIGN_OR_RETURN(n.rhs, BindNode(*coalesce.fallback(), layout));
      break;
    }
  }
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

Value BoundExpr::Eval(const Row& row) const {
  if (slot_ >= 0) return row[static_cast<size_t>(slot_)];
  if (nodes_.empty()) return literal_;
  return EvalNode(nodes_.size() - 1, row);
}

const Value* BoundExpr::ResolveNode(size_t i, const Row& row,
                                    Value* tmp) const {
  const Node& n = nodes_[i];
  if (n.kind == ScalarExpr::Kind::kColumnRef) {
    return &row[static_cast<size_t>(n.slot)];
  }
  if (n.kind == ScalarExpr::Kind::kLiteral) return &n.literal;
  *tmp = EvalNode(i, row);
  return tmp;
}

Value BoundExpr::EvalNode(size_t i, const Row& row) const {
  const Node& n = nodes_[i];
  switch (n.kind) {
    case ScalarExpr::Kind::kColumnRef:
      return row[static_cast<size_t>(n.slot)];
    case ScalarExpr::Kind::kLiteral:
      return n.literal;
    case ScalarExpr::Kind::kArith: {
      Value l, r;
      return EvalArith(n.op, *ResolveNode(n.lhs, row, &l),
                       *ResolveNode(n.rhs, row, &r));
    }
    case ScalarExpr::Kind::kCoalesce: {
      Value v = EvalNode(n.lhs, row);
      return v.is_null() ? EvalNode(n.rhs, row) : v;
    }
  }
  return Value::Null();
}

// --------------------------------------------------------- BoundConjunction

Result<BoundConjunction> BoundConjunction::Bind(
    const std::vector<Predicate>& preds, const RowLayout& layout,
    const ColumnCatalog& columns, const char* op) {
  BoundConjunction out;
  out.conjuncts_.reserve(preds.size());
  for (const Predicate& p : preds) {
    Conjunct c;
    auto lhs = BoundExpr::Bind(*p.lhs, layout);
    auto rhs = BoundExpr::Bind(*p.rhs, layout);
    if (!lhs.ok() || !rhs.ok()) return MissingColumn(op);
    c.lhs = std::move(*lhs);
    c.rhs = std::move(*rhs);
    c.op = p.op;
    // Lanes follow the static types; evaluation re-checks the runtime types,
    // so a wrong static guess costs speed, never correctness.
    DataType lt = p.lhs->ResultType(columns);
    DataType rt = p.rhs->ResultType(columns);
    if (lt == DataType::kInt64 && rt == DataType::kInt64) {
      c.lane = Lane::kInt64;
    } else if (lt == DataType::kString && rt == DataType::kString) {
      c.lane = Lane::kString;
    } else if (lt != DataType::kString && rt != DataType::kString) {
      c.lane = Lane::kDouble;
    }
    if (c.lhs.slot() >= 0 && c.rhs.is_literal()) {
      const Value& lit = c.rhs.literal();
      c.slot = c.lhs.slot();
      if (c.lane == Lane::kInt64 && lit.is_int()) {
        c.lane = Lane::kInt64SlotConst;
        c.rhs_int = lit.AsInt();
      } else if (c.lane == Lane::kDouble && (lit.is_int() || lit.is_double())) {
        c.lane = Lane::kDoubleSlotConst;
        c.rhs_double = lit.AsNumeric();
      }
    }
    out.conjuncts_.push_back(std::move(c));
  }
  return out;
}

inline bool BoundConjunction::EvalConjunct(const Conjunct& c,
                                           const Row& row) {
  // The slot-vs-literal lanes: the slot's type check doubles as its NULL
  // check, and a runtime type off the lane falls back to Value::Compare
  // against the literal, exactly what Predicate::Eval computes. Comparing
  // a DOUBLE with an INT64 literal promotes the literal to double there
  // too, so rhs_double is exact.
  if (c.lane == Lane::kInt64SlotConst) {
    const Value& l = row[static_cast<size_t>(c.slot)];
    if (l.is_int()) return CompareOpHolds(c.op, Sign(l.AsInt(), c.rhs_int));
    return !l.is_null() && CompareOpHolds(c.op, l.Compare(c.rhs.literal()));
  }
  if (c.lane == Lane::kDoubleSlotConst) {
    const Value& l = row[static_cast<size_t>(c.slot)];
    if (l.is_double()) {
      return CompareOpHolds(c.op, Sign(l.AsDouble(), c.rhs_double));
    }
    return !l.is_null() && CompareOpHolds(c.op, l.Compare(c.rhs.literal()));
  }
  Value ltmp, rtmp;
  const Value* l = c.lhs.Resolve(row, &ltmp);
  const Value* r = c.rhs.Resolve(row, &rtmp);
  // SQL semantics: comparisons with NULL are not true.
  if (l->is_null() || r->is_null()) return false;
  int cmp;
  switch (c.lane) {
    case Lane::kInt64:
      cmp = l->is_int() && r->is_int() ? Sign(l->AsInt(), r->AsInt())
                                       : l->Compare(*r);
      break;
    case Lane::kDouble:
      cmp = l->is_double() && r->is_double()
                ? Sign(l->AsDouble(), r->AsDouble())
                : l->Compare(*r);
      break;
    case Lane::kString:
      if (l->is_string() && r->is_string()) {
        int s = l->AsString().compare(r->AsString());
        cmp = s < 0 ? -1 : (s > 0 ? 1 : 0);
      } else {
        cmp = l->Compare(*r);
      }
      break;
    default:
      cmp = l->Compare(*r);
      break;
  }
  return CompareOpHolds(c.op, cmp);
}

bool BoundConjunction::EvalConjuncts(const Row& row) const {
  for (const Conjunct& c : conjuncts_) {
    if (!EvalConjunct(c, row)) return false;
  }
  return true;
}

}  // namespace aggview
