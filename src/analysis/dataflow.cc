#include "analysis/dataflow.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"
#include "obs/runtime_stats.h"

namespace aggview {

namespace {

/// The bottom-up interpreter: the shared transfer functions
/// (analysis/transfer.h) applied over a finished plan. Memoized on node
/// identity: plans are DAGs and shared subplans are visited once.
class Interpreter {
 public:
  explicit Interpreter(const Query& query) : query_(query) {}

  std::unordered_map<const PlanNode*, NodeFacts> Run(const PlanPtr& plan) {
    Visit(plan);
    return std::move(memo_);
  }

 private:
  const NodeFacts& Visit(const PlanPtr& plan) {
    auto it = memo_.find(plan.get());
    if (it != memo_.end()) return it->second;
    const ColumnCatalog& cat = query_.columns();
    const PlanNode& n = *plan;
    NodeFacts f;
    switch (n.kind) {
      case PlanNode::Kind::kScan:
        f = ScanFacts(query_, n.rel_id, n.scan_filter);
        break;
      case PlanNode::Kind::kFilter:
        if (n.left != nullptr) {
          f = FilterFacts(Visit(n.left), n.filter_preds, cat);
        }
        break;
      case PlanNode::Kind::kJoin:
        if (n.left != nullptr && n.right != nullptr) {
          f = JoinFacts(Visit(n.left), Visit(n.right), n.join_preds,
                        n.left_outer, cat);
        }
        break;
      case PlanNode::Kind::kGroupBy:
        if (n.left != nullptr) {
          f = GroupByFacts(Visit(n.left), n.group_by, cat);
        }
        break;
      case PlanNode::Kind::kSort:
        if (n.left != nullptr) f = Visit(n.left);
        break;
    }
    return memo_[plan.get()] = std::move(f);
  }

  const Query& query_;
  std::unordered_map<const PlanNode*, NodeFacts> memo_;
};

/// Error naming the offending node, same convention as the analyzer's
/// NodeError.
Status DataflowError(const PlanPtr& plan, const Query& query,
                     const std::string& what) {
  return Status::Internal(what + "\nin node:\n" + PlanToString(plan, query));
}

bool IsCountFamily(AggKind k) {
  return k == AggKind::kCount || k == AggKind::kCountStar ||
         k == AggKind::kCountSum;
}

Status CheckNode(const PlanPtr& plan, const Query& query,
                 const DataflowAnalysis& analysis,
                 std::unordered_set<const PlanNode*>* visited) {
  if (plan == nullptr || !visited->insert(plan.get()).second) {
    return Status::OK();
  }
  if (plan->left != nullptr) {
    AGGVIEW_RETURN_NOT_OK(CheckNode(plan->left, query, analysis, visited));
  }
  if (plan->right != nullptr) {
    AGGVIEW_RETURN_NOT_OK(CheckNode(plan->right, query, analysis, visited));
  }
  const NodeFacts* f = analysis.Find(plan.get());
  if (f == nullptr) return Status::OK();

  // Obligation: the estimate is consistent with the provable bounds.
  // PlanBuilder clamps every estimate into the facts this pass re-derives,
  // so an estimate outside [lo, hi] is a bug, not a modeling gap.
  if (!EstimateWithinBounds(plan->est.rows, f->card)) {
    return DataflowError(
        plan, query,
        StrFormat("estimator bug: estimated %.3f rows outside the provable "
                  "cardinality bounds [%.3f, %.3f]",
                  plan->est.rows, f->card.lo, f->card.hi));
  }

  // Obligation: no statically-false predicate (a conjunct over an
  // always-NULL column outside COALESCE evaluates to false on every row —
  // in an optimizer output that is a miscompiled pull-up or flattening).
  if (!f->dead_predicate.empty()) {
    return DataflowError(
        plan, query,
        "statically false predicate '" + f->dead_predicate +
            "': it references an always-NULL column outside COALESCE");
  }

  if (plan->kind == PlanNode::Kind::kGroupBy && plan->left != nullptr) {
    const NodeFacts* input = analysis.Find(plan->left.get());
    const ColumnCatalog& cat = query.columns();
    for (const AggregateCall& a : plan->group_by.aggregates) {
      if (a.output == kInvalidColId) continue;
      if (IsCountFamily(a.kind)) {
        // Obligation: COUNT-family outputs are non-null and >= 0 — both as
        // declared in the column catalog and as derived by the analysis.
        if (cat.nullable(a.output)) {
          return DataflowError(
              plan, query,
              "COUNT output '" + cat.name(a.output) +
                  "' is declared nullable; COUNT-family aggregates never "
                  "produce NULL");
        }
        const ColumnFacts* out = f->Find(a.output);
        if (out != nullptr) {
          if (out->null != Nullability::kNever) {
            return DataflowError(plan, query,
                                 "COUNT output '" + cat.name(a.output) +
                                     "' derives " +
                                     NullabilityName(out->null) +
                                     "; COUNT-family aggregates never "
                                     "produce NULL");
          }
          if (out->has_range && out->max < 0.0) {
            return DataflowError(
                plan, query,
                StrFormat("COUNT output '%s' derives a negative value domain "
                          "[%.3f, %.3f]",
                          cat.name(a.output).c_str(), out->min, out->max));
          }
        }
      }
      // Obligation: coalescing combine inputs that carry counts are
      // never-null. AggAccumulator::Add1/Add2/Merge silently skip a row
      // with a NULL argument, so a NULL partial count would lose every row
      // it stands for (the COUNT-combine-as-SUM bug class).
      ColId count_input = kInvalidColId;
      if (a.kind == AggKind::kCountSum && !a.args.empty()) {
        count_input = a.args[0];
      } else if (a.kind == AggKind::kAvgFinal && a.args.size() >= 2) {
        count_input = a.args[1];
      }
      if (count_input != kInvalidColId && input != nullptr) {
        const ColumnFacts* cf = input->Find(count_input);
        Nullability n =
            cf != nullptr ? cf->null : Nullability::kMaybe;
        if (n != Nullability::kNever) {
          return DataflowError(
              plan, query,
              "coalescing combine input '" + cat.name(count_input) +
                  "' of " + a.ToString(cat) + " derives " +
                  NullabilityName(n) +
                  "; Merge would silently drop NULL partial counts");
        }
      }
    }
  }
  return Status::OK();
}

/// Finds the PlanPtr owning `target` inside `root` (for error rendering on
/// the runtime path, which carries raw node pointers).
PlanPtr FindNode(const PlanPtr& root, const PlanNode* target) {
  if (root == nullptr) return nullptr;
  if (root.get() == target) return root;
  if (PlanPtr p = FindNode(root->left, target)) return p;
  return FindNode(root->right, target);
}

}  // namespace

DataflowAnalysis DataflowAnalysis::Analyze(const PlanPtr& plan,
                                           const Query& query) {
  DataflowAnalysis a;
  if (plan != nullptr) a.facts_ = Interpreter(query).Run(plan);
  return a;
}

namespace {

/// Rebuilds the spine above any node whose estimate needs clamping (plans
/// are immutable and shared); untouched subtrees are reused as-is, and the
/// memo preserves DAG sharing in the rebuilt plan.
PlanPtr ClampNodeEstimates(const PlanPtr& node,
                           const DataflowAnalysis& analysis,
                           std::unordered_map<const PlanNode*, PlanPtr>* memo) {
  if (node == nullptr) return nullptr;
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  PlanPtr left = ClampNodeEstimates(node->left, analysis, memo);
  PlanPtr right = ClampNodeEstimates(node->right, analysis, memo);
  const CardBounds& card = analysis.Find(node.get())->card;
  double rows = std::min(std::max(node->est.rows, card.lo), card.hi);
  PlanPtr out = node;
  if (left != node->left || right != node->right || rows != node->est.rows) {
    auto clone = std::make_shared<PlanNode>(*node);
    clone->left = std::move(left);
    clone->right = std::move(right);
    clone->est.rows = rows;
    out = std::move(clone);
  }
  return (*memo)[node.get()] = out;
}

}  // namespace

PlanPtr ClampEstimatesToProvableBounds(const PlanPtr& plan,
                                       const Query& query) {
  if (plan == nullptr) return plan;
  DataflowAnalysis analysis = DataflowAnalysis::Analyze(plan, query);
  std::unordered_map<const PlanNode*, PlanPtr> memo;
  return ClampNodeEstimates(plan, analysis, &memo);
}

bool EstimateWithinBounds(double est_rows, const CardBounds& bounds) {
  if (!std::isfinite(est_rows)) return false;
  // Float slack: every estimator step is a monotone rounding of monotone
  // arithmetic over the same statistics the bounds are computed from, so
  // genuine violations are categorical, not epsilon-sized.
  double lo_slack = 1e-6 * std::abs(bounds.lo) + 1e-6;
  double hi_slack = 1e-6 * std::abs(bounds.hi) + 1e-6;
  if (est_rows < bounds.lo - lo_slack) return false;
  if (std::isfinite(bounds.hi) && est_rows > bounds.hi + hi_slack) {
    return false;
  }
  return true;
}

Status CheckDataflowObligations(const PlanPtr& plan, const Query& query,
                                const DataflowAnalysis& analysis) {
  std::unordered_set<const PlanNode*> visited;
  return CheckNode(plan, query, analysis, &visited);
}

Status CheckDataflowObligations(const PlanPtr& plan, const Query& query) {
  return CheckDataflowObligations(plan, query,
                                  DataflowAnalysis::Analyze(plan, query));
}

Status DataflowVerifier::CheckBatch(const PlanNode* node,
                                    const RowLayout& layout,
                                    const RowBatch& batch) const {
  const NodeFacts* f = analysis_.Find(node);
  if (f == nullptr || batch.empty()) return Status::OK();
  const std::vector<ColId>& cols = layout.columns();
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    const ColumnFacts* cf = f->Find(cols[ci]);
    if (cf == nullptr) continue;
    bool check_null = cf->null != Nullability::kMaybe;
    bool check_range = cf->has_range || cf->has_str_range;
    if (!check_null && !check_range) continue;
    for (int r = 0; r < batch.size(); ++r) {
      const Row& row = batch.row(r);
      if (ci >= row.size()) break;
      const Value& v = row[ci];
      std::string violation;
      if (v.is_null()) {
        if (cf->null == Nullability::kNever) {
          violation = "NULL in a never-null column";
        }
      } else if (cf->null == Nullability::kAlways) {
        violation = "non-NULL value " + v.ToString() +
                    " in an always-null column";
      } else if (cf->has_range && (v.is_int() || v.is_double())) {
        double x = v.AsNumeric();
        // Tiny slack for float-accumulated aggregates (SUM/AVG): the domain
        // arithmetic and the accumulator round differently.
        double eps =
            1e-9 * (std::abs(x) + std::abs(cf->min) + std::abs(cf->max) + 1.0);
        if (x < cf->min - eps || x > cf->max + eps) {
          violation = StrFormat("value %s outside the derived domain "
                                "[%.6g, %.6g]",
                                v.ToString().c_str(), cf->min, cf->max);
        }
      } else if (cf->has_str_range && v.is_string()) {
        if (v.AsString() < cf->min_str || v.AsString() > cf->max_str) {
          violation = "value '" + v.AsString() +
                      "' outside the derived domain ['" + cf->min_str +
                      "', '" + cf->max_str + "']";
        }
      }
      if (!violation.empty()) {
        PlanPtr owner = FindNode(plan_, node);
        std::string where =
            owner != nullptr ? PlanToString(owner, *query_) : "(unknown node)";
        return Status::Internal(
            "dataflow runtime violation: column '" +
            query_->columns().name(cols[ci]) + "' (" +
            NullabilityName(cf->null) + "): " + violation + "\nin node:\n" +
            where);
      }
    }
    checks_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status DataflowVerifier::CheckNodeCardinality(
    const PlanPtr& node, const RuntimeStatsCollector& stats) const {
  if (node == nullptr) return Status::OK();
  AGGVIEW_RETURN_NOT_OK(CheckNodeCardinality(node->left, stats));
  AGGVIEW_RETURN_NOT_OK(CheckNodeCardinality(node->right, stats));
  const NodeFacts* f = analysis_.Find(node.get());
  const OpStats* op = stats.ForNode(node.get());
  if (f == nullptr || op == nullptr) return Status::OK();
  double actual = static_cast<double>(op->rows_produced);
  if (actual < f->card.lo - 0.5 ||
      (std::isfinite(f->card.hi) && actual > f->card.hi + 0.5)) {
    return Status::Internal(
        StrFormat("dataflow runtime violation: %lld rows produced, outside "
                  "the provable cardinality bounds [%.3f, %.3f]",
                  static_cast<long long>(op->rows_produced), f->card.lo,
                  f->card.hi) +
        "\nin node:\n" + PlanToString(node, *query_));
  }
  checks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DataflowVerifier::CheckPlanCardinality(
    const RuntimeStatsCollector& stats) const {
  return CheckNodeCardinality(plan_, stats);
}

}  // namespace aggview
