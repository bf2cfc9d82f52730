#include "sql/ast.h"

#include <cstdio>

namespace aggview {

std::unique_ptr<AstExpr> AstExpr::Clone() const {
  auto out = std::make_unique<AstExpr>();
  out->kind = kind;
  out->qualifier = qualifier;
  out->name = name;
  out->int_value = int_value;
  out->real_value = real_value;
  out->string_value = string_value;
  out->arith_op = arith_op;
  out->agg_kind = agg_kind;
  if (lhs != nullptr) out->lhs = lhs->Clone();
  if (rhs != nullptr) out->rhs = rhs->Clone();
  return out;
}

bool AstExpr::ContainsAggregate() const {
  if (kind == Kind::kAggregate) return true;
  if (lhs != nullptr && lhs->ContainsAggregate()) return true;
  if (rhs != nullptr && rhs->ContainsAggregate()) return true;
  return false;
}

std::string AstExpr::ToString() const {
  switch (kind) {
    case Kind::kColumnRef:
      return qualifier.empty() ? name : qualifier + "." + name;
    case Kind::kIntLiteral:
      return std::to_string(int_value);
    case Kind::kRealLiteral: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_value);
      return buf;
    }
    case Kind::kStringLiteral:
      return "'" + string_value + "'";
    case Kind::kArith: {
      const char* op = "+";
      switch (arith_op) {
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
      const std::string left = lhs->ToString();
      return "(" + left + " " + op + " " + rhs->ToString() + ")";
    }
    case Kind::kAggregate: {
      if (agg_kind == AggKind::kCountStar) return "count(*)";
      std::string name_str = AggKindName(agg_kind);
      return name_str + "(" + (lhs != nullptr ? lhs->ToString() : "") + ")";
    }
  }
  return "?";
}

}  // namespace aggview
