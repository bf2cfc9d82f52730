#include "analysis/transfer.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "expr/scalar_expr.h"

namespace aggview {

const char* NullabilityName(Nullability n) {
  switch (n) {
    case Nullability::kNever:
      return "never-null";
    case Nullability::kMaybe:
      return "maybe-null";
    case Nullability::kAlways:
      return "always-null";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Saturating product of cardinality bounds. 0 * inf is 0: a provably empty
/// side makes the join provably empty no matter how unbounded the other is.
double SatMul(double a, double b) {
  if (a == 0.0 || b == 0.0) return 0.0;
  return a * b;
}

/// Collects the columns a scalar expression references *outside* COALESCE.
/// A NULL in one of these forces the whole comparison side to NULL
/// (ArithExpr propagates NULL), and Predicate::Eval maps a NULL side to
/// false — which is what makes null-rejection inference sound. COALESCE
/// absorbs the NULL, so nothing under it is null-rejected.
void CollectNonCoalesceColumns(const ExprPtr& e, std::set<ColId>* out) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case ScalarExpr::Kind::kColumnRef:
      out->insert(static_cast<const ColumnRefExpr&>(*e).id());
      break;
    case ScalarExpr::Kind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(*e);
      CollectNonCoalesceColumns(a.lhs(), out);
      CollectNonCoalesceColumns(a.rhs(), out);
      break;
    }
    case ScalarExpr::Kind::kLiteral:
    case ScalarExpr::Kind::kCoalesce:
      break;
  }
}

std::set<ColId> NonCoalesceColumns(const Predicate& p) {
  std::set<ColId> out;
  CollectNonCoalesceColumns(p.lhs, &out);
  CollectNonCoalesceColumns(p.rhs, &out);
  return out;
}

/// Result of refining a conjunction into a facts map.
struct RefineResult {
  bool provably_empty = false;    // no row can satisfy the conjunction
  std::string dead_predicate;     // set when a conjunct references an
                                  // always-NULL column outside COALESCE
};

/// Applies one conjunction to `facts` in place — the heart of the transfer
/// functions. Per conjunct:
///  - a conjunct referencing an always-NULL column outside COALESCE is
///    statically false (Predicate::Eval maps NULL sides to false): the
///    output is provably empty and the conjunct is recorded as dead;
///  - surviving rows have non-NULL values in every column referenced
///    outside COALESCE: those columns become never-null;
///  - `col op literal` narrows the column's value domain (strict integer
///    comparisons narrow by a full unit); an empty domain proves emptiness;
///  - `colA = colB` intersects the two domains and caps both distinct
///    counts (a surviving row carries one value present in both).
RefineResult ApplyPredicates(const std::vector<Predicate>& preds,
                             const ColumnCatalog& cat,
                             std::unordered_map<ColId, ColumnFacts>* facts) {
  RefineResult result;
  for (const Predicate& p : preds) {
    std::set<ColId> refs = NonCoalesceColumns(p);
    // Statically-false conjunct: an always-NULL column outside COALESCE.
    for (ColId c : refs) {
      auto it = facts->find(c);
      if (it != facts->end() && it->second.null == Nullability::kAlways) {
        result.provably_empty = true;
        if (result.dead_predicate.empty()) {
          result.dead_predicate = p.ToString(cat);
        }
      }
    }
    // Null-rejection: surviving rows are non-NULL in every referenced
    // column (sound even after the dead-predicate case: "no rows" trivially
    // satisfies never-null).
    for (ColId c : refs) {
      auto it = facts->find(c);
      if (it != facts->end()) it->second.null = Nullability::kNever;
    }

    ColId col;
    CompareOp op;
    Value lit;
    if (p.AsColumnVsLiteral(&col, &op, &lit)) {
      auto it = facts->find(col);
      if (it == facts->end()) continue;
      ColumnFacts& cf = it->second;
      if (lit.is_int() || lit.is_double()) {
        if (op != CompareOp::kNe) {  // holes are not representable
          // The tightest lower and upper bound the literal implies. Strict
          // comparisons on an integer column exclude a full unit, applied
          // in int64 arithmetic (saturating) before the bound is rounded
          // outward to a double, so no integer beyond 2^53 is cut off.
          double lo = lit.is_double() ? lit.AsDouble() : 0.0;
          double hi = lo;
          if (lit.is_int()) {
            int64_t v = lit.AsInt();
            bool unit = cat.type(col) == DataType::kInt64;
            int64_t above = unit && op == CompareOp::kGt && v < INT64_MAX
                                ? v + 1
                                : v;
            int64_t below = unit && op == CompareOp::kLt && v > INT64_MIN
                                ? v - 1
                                : v;
            lo = LowerBoundOf(above);
            hi = UpperBoundOf(below);
          }
          if (!cf.has_range) {  // (-inf, inf), so one-sided bounds narrow it
            cf.has_range = true;
            cf.min = -kInf;
            cf.max = kInf;
          }
          if (op == CompareOp::kEq || op == CompareOp::kGt ||
              op == CompareOp::kGe) {
            cf.min = std::max(cf.min, lo);
          }
          if (op == CompareOp::kEq || op == CompareOp::kLt ||
              op == CompareOp::kLe) {
            cf.max = std::min(cf.max, hi);
          }
          if (op == CompareOp::kEq) {
            cf.max_distinct = std::min(cf.max_distinct, 1.0);
          }
        }
        if (cf.has_range && cf.min > cf.max) result.provably_empty = true;
      } else if (lit.is_string() && cat.type(col) == DataType::kString) {
        const std::string& s = lit.AsString();
        if (op == CompareOp::kEq) {
          if (cf.has_str_range && (s < cf.min_str || s > cf.max_str)) {
            result.provably_empty = true;
          }
          cf.has_str_range = true;
          cf.min_str = cf.max_str = s;
          cf.max_distinct = std::min(cf.max_distinct, 1.0);
        } else if (cf.has_str_range && op != CompareOp::kNe) {
          if (op == CompareOp::kLt || op == CompareOp::kLe) {
            cf.max_str = std::min(cf.max_str, s);
          } else {
            cf.min_str = std::max(cf.min_str, s);
          }
          if (cf.min_str > cf.max_str) result.provably_empty = true;
        }
      }
      continue;
    }

    ColId a, b;
    if (p.AsColumnEquality(&a, &b)) {
      auto ia = facts->find(a);
      auto ib = facts->find(b);
      if (ia == facts->end() || ib == facts->end()) continue;
      ColumnFacts& fa = ia->second;
      ColumnFacts& fb = ib->second;
      if (fa.has_range && fb.has_range) {
        double lo = std::max(fa.min, fb.min);
        double hi = std::min(fa.max, fb.max);
        fa.min = fb.min = lo;
        fa.max = fb.max = hi;
        if (lo > hi) result.provably_empty = true;
      }
      if (fa.has_str_range && fb.has_str_range) {
        std::string lo = std::max(fa.min_str, fb.min_str);
        std::string hi = std::min(fa.max_str, fb.max_str);
        fa.min_str = fb.min_str = lo;
        fa.max_str = fb.max_str = hi;
        if (lo > hi) result.provably_empty = true;
      }
      double d = std::min(fa.max_distinct, fb.max_distinct);
      fa.max_distinct = fb.max_distinct = d;
    }
  }
  return result;
}

ColumnFacts AggFacts(const AggregateCall& a, const NodeFacts& in, bool scalar,
                     double n_max, double groups_hi) {
  ColumnFacts out;
  // One output row per group.
  out.max_distinct = scalar ? 1.0 : std::max(groups_hi, 1.0);
  const ColumnFacts* arg = a.args.empty() ? nullptr : in.Find(a.args[0]);
  Nullability argn = arg != nullptr ? arg->null : Nullability::kMaybe;
  // A value-aggregate (SUM/MIN/MAX/AVG/MEDIAN) is NULL exactly when its
  // group fed no non-NULL argument: impossible for a grouped aggregate
  // over a never-null argument (groups have >= 1 row), certain when the
  // argument is always NULL.
  auto value_agg_null = [&]() {
    if (argn == Nullability::kAlways) return Nullability::kAlways;
    if (argn == Nullability::kNever && (!scalar || in.card.lo >= 1.0)) {
      return Nullability::kNever;
    }
    return Nullability::kMaybe;
  };
  switch (a.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      // Every input row counts for COUNT(*) and for COUNT of a never-null
      // argument; otherwise a group may count zero.
      out.null = Nullability::kNever;
      out.has_range = true;
      out.min = (a.kind == AggKind::kCountStar || argn == Nullability::kNever)
                    ? (scalar ? in.card.lo : 1.0)
                    : 0.0;
      out.max = scalar ? std::max(in.card.hi, 0.0) : n_max;
      break;
    case AggKind::kCountSum:
      // SUM with COUNT's empty-is-0 semantics: never NULL, and 0 is always
      // a possible value (empty scalar input, or all partial rows NULL).
      out.null = Nullability::kNever;
      if (arg != nullptr && arg->has_range) {
        out.has_range = true;
        out.min = std::min({0.0, arg->min, arg->min * n_max});
        out.max = std::max({0.0, arg->max, arg->max * n_max});
      }
      break;
    case AggKind::kSum:
      out.null = value_agg_null();
      if (arg != nullptr && arg->has_range) {
        out.has_range = true;
        out.min = std::min(arg->min, arg->min * n_max);
        out.max = std::max(arg->max, arg->max * n_max);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      out.null = value_agg_null();
      if (arg != nullptr) {
        if (arg->has_range) {
          out.has_range = true;
          out.min = arg->min;
          out.max = arg->max;
        }
        if (arg->has_str_range) {
          out.has_str_range = true;
          out.min_str = arg->min_str;
          out.max_str = arg->max_str;
        }
        out.max_distinct = std::min(out.max_distinct, arg->max_distinct);
      }
      break;
    case AggKind::kAvg:
    case AggKind::kMedian:
      // Both lie inside the argument's convex hull (MEDIAN may average
      // two middle samples, so it inherits the range but not the
      // argument's distinct bound).
      out.null = value_agg_null();
      if (arg != nullptr && arg->has_range) {
        out.has_range = true;
        out.min = arg->min;
        out.max = arg->max;
      }
      break;
    case AggKind::kAvgFinal: {
      const ColumnFacts* cnt =
          a.args.size() >= 2 ? in.Find(a.args[1]) : nullptr;
      Nullability cn = cnt != nullptr ? cnt->null : Nullability::kMaybe;
      if (argn == Nullability::kAlways || cn == Nullability::kAlways) {
        out.null = Nullability::kAlways;
      } else if (argn == Nullability::kNever && cn == Nullability::kNever &&
                 (!scalar || in.card.lo >= 1.0)) {
        out.null = Nullability::kNever;
      } else {
        out.null = Nullability::kMaybe;
      }
      // No value domain: a ratio of sums needs relational reasoning the
      // interval domain cannot express.
      break;
    }
  }
  return out;
}

}  // namespace

double DistinctBound(const ColumnFacts& cf, DataType type) {
  double d = cf.max_distinct;
  // The range ends are doubles, exact for integers only inside (-2^53, 2^53):
  // beyond, an end may be rounded (2^53 + 1 reads as 2^53) and the width
  // would undercount the integers the column holds.
  constexpr double kExactInt = 0x1p53;
  if (cf.has_range && type == DataType::kInt64 && cf.min > -kExactInt &&
      cf.max < kExactInt) {
    double width = std::floor(cf.max) - std::ceil(cf.min) + 1.0;
    d = std::min(d, std::max(width, 0.0));
  }
  return d;
}

NodeFacts ScanFacts(const Query& query, int rel_id,
                    const std::vector<Predicate>& scan_filter) {
  NodeFacts f;
  if (rel_id < 0 || rel_id >= query.num_range_vars()) return f;
  const RangeVar& rv = query.range_var(rel_id);
  const TableDef& def = query.catalog().table(rv.table);
  const TableStats& stats = def.stats;
  double rows = static_cast<double>(std::max<int64_t>(stats.row_count, 0));
  // Positionally aligned per-column statistics; a catalog without them
  // yields top-lattice column facts (the bounds still hold).
  bool have_cols = stats.columns.size() == rv.columns.size();
  for (size_t i = 0; i < rv.columns.size(); ++i) {
    ColumnFacts cf;
    if (have_cols) {
      const ColumnStats& cs = stats.columns[i];
      cf.max_distinct = static_cast<double>(cs.distinct);
      cf.null = cs.null_count == 0 ? Nullability::kNever
                : (stats.row_count > 0 && cs.null_count >= stats.row_count)
                    ? Nullability::kAlways
                    : Nullability::kMaybe;
      if (cs.has_range) {
        cf.has_range = true;
        cf.min = cs.min;
        cf.max = cs.max;
      }
      if (cs.has_str_range) {
        cf.has_str_range = true;
        cf.min_str = cs.min_str;
        cf.max_str = cs.max_str;
      }
    }
    f.cols[rv.columns[i]] = std::move(cf);
  }
  if (rv.rowid != kInvalidColId) {
    ColumnFacts cf;
    cf.null = Nullability::kNever;
    cf.max_distinct = rows;
    if (stats.row_count > 0) {
      cf.has_range = true;
      cf.min = 0.0;
      cf.max = rows - 1.0;
    }
    f.cols[rv.rowid] = std::move(cf);
  }
  if (scan_filter.empty()) {
    f.card = {rows, rows};  // an unfiltered scan emits exactly the table
  } else {
    f.card = {0.0, rows};
    RefineResult r = ApplyPredicates(scan_filter, query.columns(), &f.cols);
    if (r.provably_empty) f.card = {0.0, 0.0};
    f.dead_predicate = std::move(r.dead_predicate);
  }
  return f;
}

NodeFacts FilterFacts(const NodeFacts& input,
                      const std::vector<Predicate>& preds,
                      const ColumnCatalog& cat) {
  NodeFacts f = input;
  f.dead_predicate.clear();
  if (preds.empty()) return f;  // pure projection: exact pass-through
  f.card.lo = 0.0;
  RefineResult r = ApplyPredicates(preds, cat, &f.cols);
  if (r.provably_empty) f.card = {0.0, 0.0};
  f.dead_predicate = std::move(r.dead_predicate);
  return f;
}

NodeFacts JoinFacts(const NodeFacts& l, const NodeFacts& r,
                    const std::vector<Predicate>& preds, bool left_outer,
                    const ColumnCatalog& cat) {
  NodeFacts f;
  f.cols = l.cols;
  f.cols.insert(r.cols.begin(), r.cols.end());
  if (!left_outer) {
    // A cross product emits exactly |L| * |R| rows; any predicate can only
    // reject.
    f.card.lo = preds.empty() ? SatMul(l.card.lo, r.card.lo) : 0.0;
    f.card.hi = SatMul(l.card.hi, r.card.hi);
    RefineResult rr = ApplyPredicates(preds, cat, &f.cols);
    if (rr.provably_empty) f.card = {0.0, 0.0};
    f.dead_predicate = std::move(rr.dead_predicate);
    return f;
  }
  // Left outer join: every left row appears, padded when unmatched. Per
  // left row: max(matches, 1) <= max(|R|_hi, 1) output rows.
  f.card.lo = l.card.lo;
  f.card.hi = SatMul(l.card.hi, std::max(r.card.hi, 1.0));
  // Predicate refinements hold only on *matched* rows, so they apply to a
  // scratch copy; right columns adopt the refined facts (their non-NULL
  // values come from matches only) with padding folded into nullability,
  // while left columns keep the unrefined input facts (unmatched left rows
  // survive with arbitrary values).
  auto matched = f.cols;
  RefineResult rr = ApplyPredicates(preds, cat, &matched);
  f.dead_predicate = std::move(rr.dead_predicate);
  for (const auto& [col, rf] : r.cols) {
    ColumnFacts cf;
    if (rr.provably_empty) {
      // No match can exist: the right side is pure padding.
      cf.null = Nullability::kAlways;
      cf.max_distinct = 0.0;
    } else {
      cf = matched[col];
      // Padding only adds NULLs (kAlways stays).
      if (cf.null == Nullability::kNever) cf.null = Nullability::kMaybe;
    }
    f.cols[col] = std::move(cf);
  }
  if (rr.provably_empty) {
    // Output is exactly the left input, padded.
    f.card = {l.card.lo, l.card.hi};
  }
  return f;
}

NodeFacts GroupByFacts(const NodeFacts& in, const GroupBySpec& spec,
                       const ColumnCatalog& cat) {
  NodeFacts f;
  f.cols = in.cols;  // grouping columns keep the input facts
  bool scalar = spec.grouping.empty();

  // At most one group per point of the grouping columns' domain: the
  // product of their distinct bounds, plus one for the NULL group of a
  // nullable column. A scalar aggregate emits exactly one row, even over
  // empty input.
  double key_space = 1.0;
  for (ColId g : spec.grouping) {
    const ColumnFacts* cf = in.Find(g);
    double d = kUnboundedDistinct;
    if (cf != nullptr) {
      d = DistinctBound(*cf, cat.type(g)) +
          (cf->null != Nullability::kNever ? 1.0 : 0.0);
    }
    key_space = SatMul(key_space, d);
  }
  double groups_hi = scalar ? 1.0 : std::min(in.card.hi, key_space);
  double groups_lo =
      spec.having.empty() && (scalar || in.card.lo >= 1.0) ? 1.0 : 0.0;
  f.card = {groups_lo, groups_hi};

  // Rows per group never exceed the input cardinality (and a group that
  // emits a non-NULL aggregate fed at least one row).
  double n_max = std::max(in.card.hi, 1.0);
  for (const AggregateCall& a : spec.aggregates) {
    if (a.output == kInvalidColId) continue;
    f.cols[a.output] = AggFacts(a, in, scalar, n_max, groups_hi);
  }
  if (!spec.having.empty()) {
    RefineResult r = ApplyPredicates(spec.having, cat, &f.cols);
    if (r.provably_empty) f.card = {0.0, 0.0};
    f.dead_predicate = std::move(r.dead_predicate);
  }
  return f;
}

}  // namespace aggview
