#include "stats/estimator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "catalog/catalog.h"

namespace aggview {

namespace {

/// Clamps distinct counts to the (possibly fractional) row count.
void CapDistincts(RelEstimate* est) {
  for (auto& [col, cs] : est->cols) {
    (void)col;
    cs.distinct = std::max(1.0, std::min(cs.distinct, std::max(est->rows, 1.0)));
  }
}

double RangeSelectivity(const ColEstimate& cs, CompareOp op, double v) {
  if (!cs.has_range || cs.max <= cs.min) return kDefaultSelectivity;
  double below;  // fraction of the column's current rows strictly below v
  if (cs.histogram != nullptr && !cs.histogram->empty()) {
    // Condition the base histogram on the current [min, max] window (it may
    // have been narrowed by earlier conjuncts).
    double f_lo = cs.histogram->FractionBelow(cs.min);
    double f_hi = cs.histogram->FractionBelow(cs.max) +
                  1.0 / static_cast<double>(cs.histogram->bounds.size());
    f_hi = std::min(f_hi, 1.0);
    double denom = f_hi - f_lo;
    if (denom <= 1e-12) return kDefaultSelectivity;
    below = std::clamp((cs.histogram->FractionBelow(v) - f_lo) / denom, 0.0, 1.0);
  } else {
    below = std::clamp((v - cs.min) / (cs.max - cs.min), 0.0, 1.0);
  }
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return below;
    case CompareOp::kGt:
    case CompareOp::kGe:
      return 1.0 - below;
    default:
      return kDefaultSelectivity;
  }
}

}  // namespace

RelEstimate Estimator::BaseRel(const Query& query, int rel_id) {
  const RangeVar& rv = query.range_var(rel_id);
  const TableDef& def = query.catalog().table(rv.table);
  RelEstimate est;
  est.stats_epoch = query.catalog().stats_epoch();
  est.rows = static_cast<double>(def.stats.row_count);
  for (size_t i = 0; i < rv.columns.size(); ++i) {
    ColEstimate cs;
    if (i < def.stats.columns.size()) {
      const ColumnStats& src = def.stats.columns[i];
      cs.distinct = static_cast<double>(std::max<int64_t>(src.distinct, 1));
      cs.min = src.min;
      cs.max = src.max;
      cs.has_range = src.has_range;
      if (!src.histogram.empty()) cs.histogram = &src.histogram;
    }
    est.cols[rv.columns[i]] = cs;
  }
  if (rv.rowid != kInvalidColId) {
    ColEstimate cs;
    cs.distinct = est.rows;
    cs.min = 0.0;
    cs.max = std::max(est.rows - 1.0, 0.0);
    cs.has_range = est.rows > 0.0;
    est.cols[rv.rowid] = cs;
  }
  return est;
}

double Estimator::Selectivity(const Predicate& pred, const RelEstimate& input) {
  // col <op> literal
  ColId col;
  CompareOp op;
  Value v;
  if (pred.AsColumnVsLiteral(&col, &op, &v)) {
    const ColEstimate* cs = input.Find(col);
    if (cs == nullptr) return kDefaultSelectivity;
    switch (op) {
      case CompareOp::kEq:
        return 1.0 / std::max(cs->distinct, 1.0);
      case CompareOp::kNe:
        return 1.0 - 1.0 / std::max(cs->distinct, 1.0);
      default:
        if (v.is_string()) return kDefaultSelectivity;
        return RangeSelectivity(*cs, op, v.AsNumeric());
    }
  }
  // colA <op> colB
  ColId a, b;
  if (pred.AsColumnEquality(&a, &b)) {
    const ColEstimate* ca = input.Find(a);
    const ColEstimate* cb = input.Find(b);
    if (ca == nullptr || cb == nullptr) return kDefaultSelectivity;
    return 1.0 / std::max({ca->distinct, cb->distinct, 1.0});
  }
  // col < col, arithmetic, ...: no correlation information.
  return kDefaultSelectivity;
}

RelEstimate Estimator::ApplyFilter(const RelEstimate& input,
                                   const std::vector<Predicate>& preds) {
  RelEstimate out = input;
  for (const Predicate& p : preds) {
    double sel = Selectivity(p, out);
    out.rows *= sel;
    // Narrow column metadata for analyzable conjuncts.
    ColId col;
    CompareOp op;
    Value v;
    if (p.AsColumnVsLiteral(&col, &op, &v)) {
      auto it = out.cols.find(col);
      if (it != out.cols.end()) {
        ColEstimate& cs = it->second;
        if (op == CompareOp::kEq) {
          cs.distinct = 1.0;
          if (!v.is_string()) {
            cs.min = cs.max = v.AsNumeric();
            cs.has_range = true;
          }
        } else if (cs.has_range && !v.is_string()) {
          double x = v.AsNumeric();
          if (op == CompareOp::kLt || op == CompareOp::kLe) {
            cs.max = std::min(cs.max, x);
          } else if (op == CompareOp::kGt || op == CompareOp::kGe) {
            cs.min = std::max(cs.min, x);
          }
          cs.distinct *= sel;
        } else {
          cs.distinct *= sel;
        }
      }
    }
  }
  CapDistincts(&out);
  return out;
}

RelEstimate Estimator::Join(const RelEstimate& left, const RelEstimate& right,
                            const std::vector<Predicate>& preds) {
  RelEstimate out;
  out.stats_epoch = std::max(left.stats_epoch, right.stats_epoch);
  out.rows = left.rows * right.rows;
  out.cols = left.cols;
  for (const auto& [col, cs] : right.cols) out.cols[col] = cs;
  for (const Predicate& p : preds) {
    ColId a, b;
    if (p.AsColumnEquality(&a, &b)) {
      const ColEstimate* ca = out.Find(a);
      const ColEstimate* cb = out.Find(b);
      double da = ca ? ca->distinct : 1.0;
      double db = cb ? cb->distinct : 1.0;
      out.rows /= std::max({da, db, 1.0});
      // Containment: the joined column keeps the smaller distinct count, and
      // both sides keep only the intersection of their value intervals (a
      // matched value exists on both sides).
      double d = std::min(da, db);
      if (ca != nullptr) out.cols[a].distinct = d;
      if (cb != nullptr) out.cols[b].distinct = d;
      if (ca != nullptr && cb != nullptr && ca->has_range && cb->has_range) {
        double lo = std::max(ca->min, cb->min);
        double hi = std::min(ca->max, cb->max);
        out.cols[a].min = out.cols[b].min = lo;
        out.cols[a].max = out.cols[b].max = hi;
      }
    } else {
      out.rows *= Selectivity(p, out);
    }
  }
  CapDistincts(&out);
  return out;
}

double Estimator::CardenasGroups(double rows, double dvalues) {
  if (rows <= 0.0) return 0.0;
  dvalues = std::max(dvalues, 1.0);
  if (dvalues >= rows) return rows;  // limit of the formula; avoids pow() cost
  // d * (1 - (1 - 1/d)^n)
  double groups = dvalues * (1.0 - std::pow(1.0 - 1.0 / dvalues, rows));
  return std::clamp(groups, 1.0, rows);
}

RelEstimate Estimator::GroupBy(const RelEstimate& input,
                               const GroupBySpec& spec) {
  RelEstimate out;
  out.stats_epoch = input.stats_epoch;
  double key_space = 1.0;
  for (ColId g : spec.grouping) {
    const ColEstimate* cs = input.Find(g);
    key_space *= cs ? std::max(cs->distinct, 1.0) : 1.0;
    // Avoid overflow in pathological products.
    key_space = std::min(key_space, 1e18);
  }
  // A scalar aggregate emits exactly one row, even over empty input (HAVING
  // below can still reject it).
  out.rows = spec.grouping.empty() ? 1.0
                                   : CardenasGroups(input.rows, key_space);
  for (ColId g : spec.grouping) {
    const ColEstimate* cs = input.Find(g);
    out.cols[g] = cs ? *cs : ColEstimate{};
  }
  for (const AggregateCall& a : spec.aggregates) {
    ColEstimate cs;
    cs.distinct = out.rows;
    switch (a.kind) {
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kAvg:
      case AggKind::kMedian: {
        // Result is bounded by the argument's range.
        const ColEstimate* arg =
            a.args.empty() ? nullptr : input.Find(a.args[0]);
        if (arg != nullptr && arg->has_range) {
          cs.min = arg->min;
          cs.max = arg->max;
          cs.has_range = true;
        }
        break;
      }
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountSum: {
        cs.min = 1.0;
        cs.max = std::max(1.0, input.rows / std::max(out.rows, 1.0) * 4.0);
        cs.has_range = true;
        break;
      }
      case AggKind::kSum:
      case AggKind::kAvgFinal:
        break;
    }
    out.cols[a.output] = cs;
  }
  CapDistincts(&out);
  if (!spec.having.empty()) {
    out = ApplyFilter(out, spec.having);
  }
  return out;
}

Status Estimator::CheckFresh(const RelEstimate& est, const Catalog& catalog) {
  if (est.stats_epoch < 0) return Status::OK();
  const int64_t now = catalog.stats_epoch();
  if (est.stats_epoch != now) {
    return Status::InvalidArgument(
        "stale RelEstimate: built at catalog stats epoch " +
        std::to_string(est.stats_epoch) + " but the catalog is at epoch " +
        std::to_string(now) +
        "; its histogram pointers may dangle (see ColEstimate::histogram) — "
        "rebuild the estimate from current statistics");
  }
  return Status::OK();
}

}  // namespace aggview
