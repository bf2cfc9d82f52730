#include "expr/predicate.h"

namespace aggview {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

bool Predicate::Eval(const Row& row, const RowLayout& layout) const {
  Value l = lhs->Eval(row, layout);
  Value r = rhs->Eval(row, layout);
  // SQL semantics: comparisons with NULL are not true.
  if (l.is_null() || r.is_null()) return false;
  return CompareOpHolds(op, l.Compare(r));
}

std::set<ColId> Predicate::Columns() const {
  std::set<ColId> out;
  lhs->CollectColumns(&out);
  rhs->CollectColumns(&out);
  return out;
}

bool Predicate::BoundBy(const std::set<ColId>& available) const {
  for (ColId c : Columns()) {
    if (available.count(c) == 0) return false;
  }
  return true;
}

bool Predicate::References(const std::set<ColId>& cols) const {
  for (ColId c : Columns()) {
    if (cols.count(c) > 0) return true;
  }
  return false;
}

bool Predicate::AsColumnEquality(ColId* a, ColId* b) const {
  if (op != CompareOp::kEq) return false;
  ColId l = lhs->AsColumnRef();
  ColId r = rhs->AsColumnRef();
  if (l == kInvalidColId || r == kInvalidColId) return false;
  *a = l;
  *b = r;
  return true;
}

bool Predicate::AsColumnVsLiteral(ColId* col, CompareOp* effective_op,
                                  Value* value) const {
  ColId l = lhs->AsColumnRef();
  if (l != kInvalidColId && rhs->kind() == ScalarExpr::Kind::kLiteral) {
    *col = l;
    *effective_op = op;
    *value = static_cast<const LiteralExpr*>(rhs.get())->value();
    return true;
  }
  ColId r = rhs->AsColumnRef();
  if (r != kInvalidColId && lhs->kind() == ScalarExpr::Kind::kLiteral) {
    *col = r;
    *effective_op = FlipCompareOp(op);
    *value = static_cast<const LiteralExpr*>(lhs.get())->value();
    return true;
  }
  return false;
}

Predicate Predicate::RemapColumns(
    const std::unordered_map<ColId, ColId>& mapping) const {
  return Predicate(lhs->RemapColumns(mapping), op, rhs->RemapColumns(mapping));
}

std::string Predicate::ToString(const ColumnCatalog& cat) const {
  return lhs->ToString(cat) + " " + CompareOpSymbol(op) + " " +
         rhs->ToString(cat);
}

std::set<ColId> ConjunctionColumns(const std::vector<Predicate>& preds) {
  std::set<ColId> out;
  for (const Predicate& p : preds) {
    p.lhs->CollectColumns(&out);
    p.rhs->CollectColumns(&out);
  }
  return out;
}

Predicate Cmp(ExprPtr lhs, CompareOp op, ExprPtr rhs) {
  return Predicate(std::move(lhs), op, std::move(rhs));
}

Predicate EqCols(ColId a, ColId b) {
  return Predicate(Col(a), CompareOp::kEq, Col(b));
}

}  // namespace aggview
