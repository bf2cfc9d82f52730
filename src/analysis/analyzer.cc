#include "analysis/analyzer.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/dataflow.h"
#include "common/string_util.h"
#include "optimizer/plan_validator.h"
#include "transform/decompose.h"
#include "view/definition_analysis.h"

namespace aggview {

namespace {

Status NodeError(const PlanPtr& plan, const Query& query,
                 const std::string& what) {
  return Status::Internal(what + "\nin node:\n" + PlanToString(plan, query));
}

/// Scalar expressions must be numeric-only below arithmetic; a column of one
/// type family never meets the other family in a comparison. This is the
/// static counterpart of Value::CheckedCompare: a plan that fails here would
/// otherwise produce type confusion at execution time.
Status CheckExprOperands(const ExprPtr& expr, const ColumnCatalog& cat) {
  if (expr == nullptr) return Status::Internal("null expression in predicate");
  if (expr->kind() == ScalarExpr::Kind::kArith) {
    const auto* arith = static_cast<const ArithExpr*>(expr.get());
    for (const ExprPtr& side : {arith->lhs(), arith->rhs()}) {
      AGGVIEW_RETURN_NOT_OK(CheckExprOperands(side, cat));
      if (!IsNumeric(side->ResultType(cat))) {
        return Status::Internal("arithmetic over non-numeric operand '" +
                                side->ToString(cat) + "'");
      }
    }
  } else if (expr->kind() == ScalarExpr::Kind::kCoalesce) {
    const auto* c = static_cast<const CoalesceExpr*>(expr.get());
    AGGVIEW_RETURN_NOT_OK(CheckExprOperands(c->inner(), cat));
    AGGVIEW_RETURN_NOT_OK(CheckExprOperands(c->fallback(), cat));
  }
  return Status::OK();
}

Status CheckPredicateTypes(const Predicate& pred, const ColumnCatalog& cat) {
  AGGVIEW_RETURN_NOT_OK(CheckExprOperands(pred.lhs, cat));
  AGGVIEW_RETURN_NOT_OK(CheckExprOperands(pred.rhs, cat));
  DataType lhs = pred.lhs->ResultType(cat);
  DataType rhs = pred.rhs->ResultType(cat);
  if (IsNumeric(lhs) != IsNumeric(rhs)) {
    return Status::Internal(StrFormat(
        "predicate '%s' compares %s with %s", pred.ToString(cat).c_str(),
        DataTypeName(lhs), DataTypeName(rhs)));
  }
  return Status::OK();
}

Status CheckConjunctionTypes(const std::vector<Predicate>& preds,
                             const ColumnCatalog& cat) {
  for (const Predicate& p : preds) {
    AGGVIEW_RETURN_NOT_OK(CheckPredicateTypes(p, cat));
  }
  return Status::OK();
}

Status CheckAggregateArity(const AggregateCall& call,
                           const ColumnCatalog& cat) {
  size_t expected;
  switch (call.kind) {
    case AggKind::kCountStar:
      expected = 0;
      break;
    case AggKind::kAvgFinal:
      expected = 2;
      break;
    default:
      expected = 1;
      break;
  }
  if (call.args.size() != expected) {
    return Status::Internal(StrFormat(
        "aggregate '%s' takes %zu argument(s), got %zu",
        call.ToString(cat).c_str(), expected, call.args.size()));
  }
  for (ColId arg : call.args) {
    if (call.kind != AggKind::kMin && call.kind != AggKind::kMax &&
        call.kind != AggKind::kCount && !IsNumeric(cat.type(arg))) {
      return Status::Internal(StrFormat(
          "aggregate '%s' over non-numeric argument '%s'",
          call.ToString(cat).c_str(), cat.name(arg).c_str()));
    }
  }
  return Status::OK();
}

/// Aggregate outputs must be pairwise distinct, never grouping columns, and
/// never their own arguments — a spec violating this aliases two unrelated
/// values into one column id and silently corrupts downstream references.
Status CheckGroupBySpec(const GroupBySpec& gb, const ColumnCatalog& cat) {
  std::set<ColId> grouping(gb.grouping.begin(), gb.grouping.end());
  std::set<ColId> outputs;
  for (const AggregateCall& a : gb.aggregates) {
    AGGVIEW_RETURN_NOT_OK(CheckAggregateArity(a, cat));
    if (a.output == kInvalidColId) {
      return Status::Internal("aggregate '" + a.ToString(cat) +
                              "' has no output column");
    }
    if (!outputs.insert(a.output).second) {
      return Status::Internal("two aggregates share output column '" +
                              cat.name(a.output) + "'");
    }
    if (grouping.count(a.output) > 0) {
      return Status::Internal("aggregate output '" + cat.name(a.output) +
                              "' is also a grouping column");
    }
    for (ColId arg : a.args) {
      if (outputs.count(arg) > 0) {
        return Status::Internal("aggregate argument '" + cat.name(arg) +
                                "' is an aggregate output of the same node");
      }
    }
  }
  // HAVING placement: only over the group-by's own outputs.
  std::set<ColId> visible = grouping;
  visible.insert(outputs.begin(), outputs.end());
  for (const Predicate& p : gb.having) {
    if (!p.BoundBy(visible)) {
      return Status::Internal("HAVING predicate '" + p.ToString(cat) +
                              "' references a non-output column");
    }
  }
  AGGVIEW_RETURN_NOT_OK(CheckConjunctionTypes(gb.having, cat));
  return Status::OK();
}

Status AnalyzeNode(const PlanPtr& plan, const Query& query) {
  if (plan == nullptr) return Status::Internal("null plan node");
  const ColumnCatalog& cat = query.columns();
  Status local = Status::OK();
  switch (plan->kind) {
    case PlanNode::Kind::kScan:
      local = CheckConjunctionTypes(plan->scan_filter, cat);
      break;
    case PlanNode::Kind::kFilter:
      AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan->left, query));
      local = CheckConjunctionTypes(plan->filter_preds, cat);
      break;
    case PlanNode::Kind::kJoin:
      AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan->left, query));
      AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan->right, query));
      local = CheckConjunctionTypes(plan->join_preds, cat);
      break;
    case PlanNode::Kind::kGroupBy:
      AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan->left, query));
      local = CheckGroupBySpec(plan->group_by, cat);
      break;
    case PlanNode::Kind::kSort:
      AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan->left, query));
      break;
  }
  if (!local.ok()) return NodeError(plan, query, local.message());
  return Status::OK();
}

}  // namespace

Status AnalyzePlan(const PlanPtr& plan, const Query& query,
                   const AnalysisOptions& options) {
  if (options.structural) {
    AGGVIEW_RETURN_NOT_OK(ValidatePlan(plan, query));
  }
  if (options.semantic) {
    AGGVIEW_RETURN_NOT_OK(AnalyzeNode(plan, query));
    // The derivation itself re-walks the tree and fails on malformed nodes;
    // its result also feeds the certificate verifiers.
    AGGVIEW_RETURN_NOT_OK(DerivePlanProperties(plan, query).status());
  }
  // Last, so type/shape errors surface with the more specific messages of
  // the passes above before the dataflow obligations see the plan.
  if (options.dataflow) {
    AGGVIEW_RETURN_NOT_OK(CheckDataflowObligations(plan, query));
  }
  return Status::OK();
}

Status VerifyPullUpCertificate(const Query& query,
                               const PullUpCertificate& cert) {
  const ColumnCatalog& cat = query.columns();

  // The grouping may only grow: every original grouping column survives.
  std::set<ColId> after(cert.grouping_after.begin(),
                        cert.grouping_after.end());
  for (ColId g : cert.grouping_before) {
    if (after.count(g) == 0) {
      return Status::Internal("pull-up dropped grouping column '" +
                              cat.name(g) + "'");
    }
  }

  // Independent FD model of the extended block: catalog keys of every block
  // relation plus the recorded conjunction.
  FdSet fds;
  for (int rel : cert.block_rels) {
    fds.Merge(RangeVarFds(query, rel));
  }
  fds.AddPredicates(cert.block_predicates);
  std::set<ColId> fixed = fds.Closure(after);

  std::set<int> claimed;
  for (const PullUpCertificate::RelClaim& claim : cert.rels) {
    claimed.insert(claim.rel);
    if (cert.pulled.count(claim.rel) == 0) {
      return Status::Internal(
          "pull-up certificate claims a relation that was not pulled");
    }
    const RangeVar& rv = query.range_var(claim.rel);
    // The added key columns (if any) must actually be grouping columns.
    for (ColId c : claim.key_added) {
      if (after.count(c) == 0) {
        return Status::Internal(StrFormat(
            "pull-up of '%s' claims key column '%s' was added to the "
            "grouping, but it is absent",
            rv.alias.c_str(), cat.name(c).c_str()));
      }
    }
    // Definition 1's obligation: the deferred grouping pins a key of the
    // pulled relation, so each group holds at most one of its tuples.
    bool covered = false;
    for (const std::vector<ColId>& key : RangeVarKeys(query, claim.rel)) {
      if (std::all_of(key.begin(), key.end(),
                      [&](ColId c) { return fixed.count(c) > 0; })) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return Status::Internal(StrFormat(
          "pull-up of relation '%s' into view #%zu is illegal: the deferred "
          "grouping columns do not determine any key of '%s' under the "
          "block's predicates (Section 3, Definition 1)",
          rv.alias.c_str(), cert.view_idx, rv.alias.c_str()));
    }
  }
  for (int rel : cert.pulled) {
    if (claimed.count(rel) == 0) {
      return Status::Internal(
          "pull-up certificate is missing a claim for pulled relation '" +
          query.range_var(rel).alias + "'");
    }
  }
  return Status::OK();
}

namespace {

/// Columns and independently re-derived keys of one block relation claim.
struct RelFacts {
  std::string name;
  std::set<ColId> cols;
  std::vector<std::vector<ColId>> keys;
};

Result<RelFacts> FactsOf(const Query& query, const BlockRelClaim& claim) {
  RelFacts facts;
  facts.name = claim.name;
  if (claim.scan_rel >= 0) {
    facts.cols = query.range_var(claim.scan_rel).ColumnSet();
    facts.keys = RangeVarKeys(query, claim.scan_rel);
    if (facts.name.empty()) facts.name = query.range_var(claim.scan_rel).alias;
    return facts;
  }
  if (claim.composite == nullptr) {
    return Status::Internal("block relation claim '" + claim.name +
                            "' has neither a scan target nor a plan");
  }
  AGGVIEW_ASSIGN_OR_RETURN(PlanProperties props,
                           DerivePlanProperties(claim.composite, query));
  facts.cols = props.columns;
  // Keep only keys the closure actually certifies over the visible columns.
  for (const std::vector<ColId>& key : props.keys) {
    if (props.fds.Determines(std::set<ColId>(key.begin(), key.end()),
                             props.columns)) {
      facts.keys.push_back(key);
    }
  }
  return facts;
}

/// IG1-IG3 for one candidate against the given retained column set,
/// discharged with the analyzer's own FD machinery.
Status CheckRemovable(const Query& query, const InvariantCertificate& cert,
                      const RelFacts& rel,
                      const std::set<ColId>& retained_cols) {
  const ColumnCatalog& cat = query.columns();
  const GroupBySpec& gb = cert.group_by;

  // IG1: no aggregate argument from the removed relation.
  for (ColId arg : gb.AggArgSet()) {
    if (rel.cols.count(arg) > 0) {
      return Status::Internal(StrFormat(
          "invariant grouping removed relation '%s' but aggregate argument "
          "'%s' comes from it (IG1)",
          rel.name.c_str(), cat.name(arg).c_str()));
    }
  }

  std::set<ColId> grouping(gb.grouping.begin(), gb.grouping.end());

  // IG2: crossing predicates touch only grouping columns on the retained
  // side.
  for (const Predicate& p : cert.predicates) {
    std::set<ColId> cols = p.Columns();
    bool touches_rel = false, touches_retained = false;
    for (ColId c : cols) {
      if (rel.cols.count(c) > 0) touches_rel = true;
      if (retained_cols.count(c) > 0) touches_retained = true;
    }
    if (!touches_rel || !touches_retained) continue;
    for (ColId c : cols) {
      if (retained_cols.count(c) > 0 && grouping.count(c) == 0) {
        return Status::Internal(StrFormat(
            "invariant grouping removed relation '%s' but predicate '%s' "
            "reaches non-grouping retained column '%s' (IG2)",
            rel.name.c_str(), p.ToString(cat).c_str(), cat.name(c).c_str()));
      }
    }
  }

  // IG3: at most one removed-relation tuple per group. FD formulation: the
  // grouping columns (fixed within a group) plus predicate-implied constants
  // and equivalences must pin some key of the removed relation. There is no
  // waiver for duplicate-insensitive aggregates: MIN/MAX values survive
  // fan-out but the output row multiplicity does not, and bag semantics make
  // that multiplicity observable downstream.
  FdSet fds;
  fds.AddPredicates(cert.predicates);
  for (ColId g : gb.grouping) fds.AddConstant(g);
  std::set<ColId> fixed = fds.Closure({});
  for (const std::vector<ColId>& key : rel.keys) {
    if (!key.empty() && std::all_of(key.begin(), key.end(), [&](ColId c) {
          return fixed.count(c) > 0;
        })) {
      return Status::OK();
    }
  }
  return Status::Internal(StrFormat(
      "invariant grouping removed relation '%s' but its join is not pinned "
      "to one tuple per group: no key of '%s' is fixed by the grouping "
      "columns and predicates (IG3)",
      rel.name.c_str(), rel.name.c_str()));
}

}  // namespace

Status VerifyInvariantCertificate(const Query& query,
                                  const InvariantCertificate& cert) {
  std::vector<RelFacts> removed, retained;
  for (const BlockRelClaim& claim : cert.removed) {
    AGGVIEW_ASSIGN_OR_RETURN(RelFacts facts, FactsOf(query, claim));
    removed.push_back(std::move(facts));
  }
  for (const BlockRelClaim& claim : cert.retained) {
    AGGVIEW_ASSIGN_OR_RETURN(RelFacts facts, FactsOf(query, claim));
    retained.push_back(std::move(facts));
  }

  std::set<ColId> retained_cols;
  for (const RelFacts& r : retained) {
    retained_cols.insert(r.cols.begin(), r.cols.end());
  }

  // Search for a valid elimination order (the conditions weaken as the
  // retained side shrinks, so greedy progress suffices).
  std::vector<bool> done(removed.size(), false);
  size_t remaining = removed.size();
  Status last = Status::OK();
  while (remaining > 0) {
    bool progress = false;
    for (size_t i = 0; i < removed.size(); ++i) {
      if (done[i]) continue;
      std::set<ColId> others = retained_cols;
      for (size_t j = 0; j < removed.size(); ++j) {
        if (j != i && !done[j]) {
          others.insert(removed[j].cols.begin(), removed[j].cols.end());
        }
      }
      Status st = CheckRemovable(query, cert, removed[i], others);
      if (st.ok()) {
        done[i] = true;
        --remaining;
        progress = true;
      } else {
        last = st;
      }
    }
    if (!progress) return last;
  }
  return Status::OK();
}

Status VerifyCoalescingCertificate(const Query& query,
                                   const CoalescingCertificate& cert) {
  const ColumnCatalog& cat = query.columns();

  // The pre-aggregation must group by every original grouping column that is
  // available below, plus every carried column, and nothing from above.
  std::set<ColId> partial_grouping(cert.partial.grouping.begin(),
                                   cert.partial.grouping.end());
  for (ColId g : cert.partial.grouping) {
    if (cert.below_cols.count(g) == 0) {
      return Status::Internal("coalescing pre-aggregation groups by '" +
                              cat.name(g) +
                              "', which its input does not produce");
    }
  }
  for (ColId g : cert.original.grouping) {
    if (cert.below_cols.count(g) > 0 && partial_grouping.count(g) == 0) {
      return Status::Internal(
          "coalescing pre-aggregation dropped grouping column '" +
          cat.name(g) + "'");
    }
  }
  for (ColId c : cert.carry_cols) {
    if (cert.below_cols.count(c) > 0 && partial_grouping.count(c) == 0) {
      return Status::Internal(
          "coalescing pre-aggregation dropped carried column '" + cat.name(c) +
          "' still needed above");
    }
  }
  if (!cert.partial.having.empty()) {
    return Status::Internal(
        "coalescing pre-aggregation must not filter groups (HAVING belongs "
        "to the final group-by)");
  }

  // Replay the canonical combine mapping aggregate by aggregate.
  size_t pi = 0;  // index into cert.partial.aggregates
  if (cert.final_aggregates.size() != cert.original.aggregates.size()) {
    return Status::Internal(
        "coalescing changed the number of visible aggregates");
  }
  for (size_t i = 0; i < cert.original.aggregates.size(); ++i) {
    const AggregateCall& orig = cert.original.aggregates[i];
    const AggregateCall& fin = cert.final_aggregates[i];
    if (!IsDecomposable(orig.kind)) {
      return Status::Internal(StrFormat(
          "coalescing split the non-decomposable aggregate '%s' "
          "(Section 4.2's applicability condition)",
          orig.ToString(cat).c_str()));
    }
    for (ColId arg : orig.args) {
      if (cert.below_cols.count(arg) == 0) {
        return Status::Internal(StrFormat(
            "coalescing pre-aggregated '%s' but its argument '%s' is not "
            "available below",
            orig.ToString(cat).c_str(), cat.name(arg).c_str()));
      }
    }
    if (fin.output != orig.output) {
      return Status::Internal("coalescing changed the output column of '" +
                              orig.ToString(cat) + "'");
    }

    auto take_partial = [&]() -> const AggregateCall* {
      if (pi >= cert.partial.aggregates.size()) return nullptr;
      return &cert.partial.aggregates[pi++];
    };
    auto fail = [&](const char* why) {
      return Status::Internal(StrFormat(
          "coalescing of '%s' is not the canonical combine form: %s",
          orig.ToString(cat).c_str(), why));
    };

    switch (orig.kind) {
      case AggKind::kSum: {
        const AggregateCall* p = take_partial();
        if (p == nullptr || p->kind != orig.kind || p->args != orig.args) {
          return fail("partial aggregate mismatch");
        }
        if (fin.kind != AggKind::kSum || fin.args != std::vector<ColId>{p->output}) {
          return fail("final must be SUM of the partial");
        }
        break;
      }
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountSum: {
        const AggregateCall* p = take_partial();
        if (p == nullptr || p->kind != orig.kind || p->args != orig.args) {
          return fail("partial aggregate mismatch");
        }
        // The combine of counts must itself be count-like (kCountSum): a
        // plain SUM would turn a scalar COUNT over an empty join into NULL.
        if (fin.kind != AggKind::kCountSum ||
            fin.args != std::vector<ColId>{p->output}) {
          return fail("final must be the count-preserving SUM of the partial");
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        const AggregateCall* p = take_partial();
        if (p == nullptr || p->kind != orig.kind || p->args != orig.args) {
          return fail("partial aggregate mismatch");
        }
        if (fin.kind != orig.kind || fin.args != std::vector<ColId>{p->output}) {
          return fail("final must apply the same extremum to the partial");
        }
        break;
      }
      case AggKind::kAvg: {
        const AggregateCall* psum = take_partial();
        const AggregateCall* pcount = take_partial();
        if (psum == nullptr || pcount == nullptr ||
            psum->kind != AggKind::kSum || psum->args != orig.args ||
            pcount->kind != AggKind::kCount || pcount->args != orig.args) {
          // COUNT of the argument, not COUNT(*): AVG divides by the number
          // of non-NULL values, and COUNT(*) inflates the denominator when
          // a group contains NULL arguments.
          return fail("AVG needs partial SUM and COUNT of the argument");
        }
        if (fin.kind != AggKind::kAvgFinal ||
            fin.args != std::vector<ColId>{psum->output, pcount->output}) {
          return fail("final must divide the partial SUM by the COUNT");
        }
        break;
      }
      case AggKind::kAvgFinal: {
        const AggregateCall* psum = take_partial();
        const AggregateCall* pcount = take_partial();
        if (psum == nullptr || pcount == nullptr ||
            psum->kind != AggKind::kSum ||
            psum->args != std::vector<ColId>{orig.args[0]} ||
            pcount->kind != AggKind::kCountSum ||
            pcount->args != std::vector<ColId>{orig.args[1]}) {
          // Count side must pre-aggregate with kCountSum, not kSum: a plain
          // SUM over an empty scalar partial is NULL and would be silently
          // dropped by the AvgFinal combine.
          return fail(
              "re-split AVG needs a partial SUM of the sum and a "
              "count-preserving SUM of the count");
        }
        if (fin.kind != AggKind::kAvgFinal ||
            fin.args != std::vector<ColId>{psum->output, pcount->output}) {
          return fail("final must divide the partial sums");
        }
        break;
      }
      case AggKind::kMedian:
        return fail("MEDIAN is not decomposable");
    }
  }
  if (pi != cert.partial.aggregates.size()) {
    return Status::Internal(
        "coalescing pre-aggregation computes unclaimed partial aggregates");
  }
  return Status::OK();
}

Status VerifyViewRewriteCertificate(const Query& query,
                                    const ViewRewriteCertificate& cert) {
  auto fail = [&](const std::string& what) {
    return Status::Internal("view rewrite certificate ('" + cert.view_name +
                            "') rejected: " + what);
  };
  const Catalog& catalog = query.catalog();
  const ViewDefinition* view = catalog.FindView(cert.view_name);
  if (view == nullptr) return fail("no such materialized view");
  if (cert.backing_rel < 0 || cert.backing_rel >= query.num_range_vars()) {
    return fail("backing range variable out of range");
  }
  const RangeVar& brv = query.range_var(cert.backing_rel);
  if (brv.table != view->backing_table) {
    return fail("backing scan is not the view's backing table");
  }
  // Re-derive the definition from its stored SQL, independent of the
  // analysis the rewriter matched against.
  AGGVIEW_ASSIGN_OR_RETURN(
      DefAnalysis def,
      AnalyzeViewDefinition(catalog, view->name, view->definition_sql,
                            view->column_names));

  // The backing key must be exactly the grouping prefix — the property that
  // makes a residual roll-up aggregate whole view groups.
  const TableDef& backing = catalog.table(view->backing_table);
  if (static_cast<int>(backing.primary_key.size()) != def.num_grouping) {
    return fail("backing key is not the grouping prefix");
  }
  for (int k = 0; k < def.num_grouping; ++k) {
    if (backing.primary_key[static_cast<size_t>(k)] != k) {
      return fail("backing key is not the grouping prefix");
    }
  }

  // The replaced relations must biject onto the definition FROM list,
  // preserving catalog tables (positional: cert.replaced_rels is in
  // definition order).
  if (cert.replaced_rels.size() != def.base_tables.size()) {
    return fail("replaced relation count does not match the definition");
  }
  std::unordered_map<ColId, ColId> colmap;  // definition -> incoming
  for (size_t p = 0; p < cert.replaced_rels.size(); ++p) {
    int rel = cert.replaced_rels[p];
    if (rel < 0 || rel >= query.num_range_vars()) {
      return fail("replaced relation out of range");
    }
    const RangeVar& iv = query.range_var(rel);
    if (iv.table != def.base_tables[p]) {
      return fail("replaced relation scans a different table than the "
                  "definition");
    }
    const RangeVar& dv = def.query.range_var(def.query.base_rels()[p]);
    for (size_t j = 0; j < dv.columns.size(); ++j) {
      colmap[dv.columns[j]] = iv.columns[j];
    }
  }

  // Predicate equality as canonicalized multisets.
  auto canon = [&](const Predicate& p) {
    std::string fwd = p.ToString(query.columns());
    Predicate flipped(p.rhs, FlipCompareOp(p.op), p.lhs);
    std::string rev = flipped.ToString(query.columns());
    return fwd < rev ? fwd : rev;
  };
  std::vector<std::string> def_preds;
  for (const Predicate& p : def.query.predicates()) {
    def_preds.push_back(canon(p.RemapColumns(colmap)));
  }
  std::vector<std::string> got_preds;
  for (const Predicate& p : cert.replaced_predicates) {
    got_preds.push_back(canon(p));
  }
  std::sort(def_preds.begin(), def_preds.end());
  std::sort(got_preds.begin(), got_preds.end());
  if (def_preds != got_preds) {
    return fail("absorbed predicates do not equal the definition's WHERE");
  }

  // Grouping containment + the reuse invariant: each kept grouping column
  // is one of the view's grouping keys and the backing scan produces it at
  // that key's position.
  for (ColId g : cert.grouping) {
    int key = -1;
    for (int k = 0; k < def.num_grouping; ++k) {
      int p = def.grouping_rel[static_cast<size_t>(k)];
      int c = def.grouping_col[static_cast<size_t>(k)];
      const RangeVar& iv =
          query.range_var(cert.replaced_rels[static_cast<size_t>(p)]);
      if (iv.columns[static_cast<size_t>(c)] == g) {
        key = k;
        break;
      }
    }
    if (key < 0) return fail("kept grouping column is not a view grouping key");
    if (brv.columns[static_cast<size_t>(key)] != g) {
      return fail("backing scan does not produce the kept grouping column");
    }
  }

  // Aggregates: each original call maps onto a stored slot (by kind and
  // argument) and became exactly its decomposition combine over that slot's
  // partial columns, keeping the output id.
  if (cert.original_aggregates.size() != cert.combine_aggregates.size()) {
    return fail("aggregate lists disagree in length");
  }
  for (size_t i = 0; i < cert.original_aggregates.size(); ++i) {
    const AggregateCall& orig = cert.original_aggregates[i];
    const AggregateCall& comb = cert.combine_aggregates[i];
    if (orig.output != comb.output) {
      return fail("combine does not keep the original output column");
    }
    Result<AggDecomposition> d = DecomposeAggregate(orig.kind);
    if (!d.ok()) return fail("original aggregate is not decomposable");
    if (comb.kind != d->combine) {
      return fail("combine kind is not the decomposition combine");
    }
    std::vector<int> storage;
    if (orig.kind == AggKind::kCountStar) {
      storage = {def.rows_col};
    } else {
      if (orig.args.size() != 1) return fail("original aggregate arity");
      // Locate the argument among the replaced relations.
      int rel_pos = -1;
      int col = -1;
      for (size_t p = 0; p < cert.replaced_rels.size() && rel_pos < 0; ++p) {
        const RangeVar& iv = query.range_var(cert.replaced_rels[p]);
        for (size_t j = 0; j < iv.columns.size(); ++j) {
          if (iv.columns[j] == orig.args[0]) {
            rel_pos = static_cast<int>(p);
            col = static_cast<int>(j);
            break;
          }
        }
      }
      if (rel_pos < 0) {
        return fail("aggregate argument is not a replaced base column");
      }
      const ViewAggSlot* slot = nullptr;
      for (const ViewAggSlot& s : def.slots) {
        if (s.kind == orig.kind && s.arg_rel == rel_pos && s.arg_col == col) {
          slot = &s;
          break;
        }
      }
      if (slot == nullptr) {
        return fail("no stored slot answers aggregate " +
                    orig.ToString(query.columns()));
      }
      storage = slot->storage;
    }
    if (comb.args.size() != storage.size()) {
      return fail("combine arity does not match the slot storage");
    }
    for (size_t j = 0; j < storage.size(); ++j) {
      if (comb.args[j] != brv.columns[static_cast<size_t>(storage[j])]) {
        return fail("combine argument is not the slot's partial column");
      }
    }
  }
  return Status::OK();
}

Status VerifyAudit(const Query& query, const TransformationAudit& audit) {
  for (const PullUpCertificate& cert : audit.pullups) {
    AGGVIEW_RETURN_NOT_OK(VerifyPullUpCertificate(query, cert));
  }
  for (const InvariantCertificate& cert : audit.invariants) {
    AGGVIEW_RETURN_NOT_OK(VerifyInvariantCertificate(query, cert));
  }
  for (const CoalescingCertificate& cert : audit.coalescings) {
    AGGVIEW_RETURN_NOT_OK(VerifyCoalescingCertificate(query, cert));
  }
  for (const ViewRewriteCertificate& cert : audit.view_rewrites) {
    AGGVIEW_RETURN_NOT_OK(VerifyViewRewriteCertificate(query, cert));
  }
  return Status::OK();
}

}  // namespace aggview
