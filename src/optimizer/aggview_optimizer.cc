#include "optimizer/aggview_optimizer.h"

#include <algorithm>
#include <functional>

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "optimizer/traditional.h"
#include "transform/propagate.h"
#include "transform/pullup.h"
#include "transform/pushdown.h"

namespace aggview {

namespace {

/// Safety cap on the number of W assignments evaluated.
constexpr int kMaxAssignments = 512;

/// Columns referenced by the top block: its predicates, G0 (grouping,
/// aggregate arguments, HAVING) and the select list.
std::set<ColId> TopReferences(const Query& query) {
  std::set<ColId> refs;
  for (const Predicate& p : query.predicates()) {
    for (ColId c : p.Columns()) refs.insert(c);
  }
  if (query.top_group_by().has_value()) {
    const GroupBySpec& g0 = *query.top_group_by();
    refs.insert(g0.grouping.begin(), g0.grouping.end());
    for (const AggregateCall& a : g0.aggregates) {
      refs.insert(a.args.begin(), a.args.end());
    }
    for (const Predicate& p : g0.having) {
      for (ColId c : p.Columns()) refs.insert(c);
    }
  }
  refs.insert(query.select_list().begin(), query.select_list().end());
  return refs;
}

/// Candidate pull-up subsets W for one view (Section 5.3's restrictions:
/// shared predicate, at most `max_pullup` relations). Always contains ∅.
std::vector<std::set<int>> CandidatePullSets(const Query& query,
                                             size_t view_idx,
                                             const OptimizerOptions& options) {
  std::vector<std::set<int>> result = {{}};
  if (options.max_pullup <= 0 || query.views().empty()) return result;
  const AggView& view = query.views()[view_idx];

  std::set<std::set<int>> seen = {{}};
  size_t frontier_begin = 0;
  while (frontier_begin < result.size()) {
    size_t frontier_end = result.size();
    for (size_t f = frontier_begin; f < frontier_end; ++f) {
      std::set<int> base = result[f];
      if (static_cast<int>(base.size()) >= options.max_pullup) continue;
      for (int rel : query.base_rels()) {
        if (base.count(rel) > 0) continue;
        if (options.require_shared_predicate &&
            !SharesPredicateWithView(query, view, base, rel)) {
          continue;
        }
        std::set<int> extended = base;
        extended.insert(rel);
        if (seen.insert(extended).second) result.push_back(std::move(extended));
      }
    }
    frontier_begin = frontier_end;
  }
  return result;
}

std::string DescribeAssignment(const Query& query,
                               const std::vector<std::set<int>>& assignment) {
  std::string out;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (i > 0) out += "; ";
    out += "W(" + query.views()[i].name + ")={";
    bool first = true;
    for (int rel : assignment[i]) {
      if (!first) out += ",";
      out += query.range_var(rel).alias;
      first = false;
    }
    out += "}";
  }
  if (assignment.empty()) out = "single block";
  return out;
}

/// Optimizes one fully-rewritten query (views already extended by pull-up):
/// phase 1 per view, phase 2 over composites + remaining base relations.
Result<PlanPtr> OptimizeRewritten(Query* query, const OptimizerOptions& options,
                                  EnumerationCounters* counters) {
  std::set<ColId> top_refs = TopReferences(*query);

  // Paranoid mode: analyze every candidate at DP-table insertion time and
  // re-verify every early group-by placement certificate. The hook captures
  // `query` by pointer; it outlives both OptimizeBlock calls below.
  EnumeratorOptions enum_options = options.enumerator;
  if (options.paranoid) {
    enum_options.verify_certificates = true;
    const Query* q = query;
    AnalysisOptions analysis;
    analysis.dataflow = options.paranoid_dataflow;
    enum_options.dp_check = [q, analysis](const PlanPtr& plan) {
      return AnalyzePlan(plan, *q, analysis);
    };
  }

  BlockSpec top;
  // Phase 1: each aggregate view becomes a composite relation.
  for (const AggView& view : query->views()) {
    BlockSpec view_block;
    for (int rel : view.spj.rels) {
      BlockRel br;
      br.name = query->range_var(rel).alias;
      br.scan_rel = rel;
      view_block.rels.push_back(std::move(br));
    }
    view_block.predicates = view.spj.predicates;
    view_block.group_by = view.group_by;
    for (ColId c : view.OutputColumns()) {
      if (top_refs.count(c) > 0) view_block.needed_output.insert(c);
    }
    AGGVIEW_ASSIGN_OR_RETURN(
        PlanPtr composite,
        OptimizeBlock(*query, &query->columns(), view_block,
                      enum_options, counters));
    BlockRel br;
    br.name = view.name;
    br.composite = composite;
    br.keys.push_back(view.group_by.grouping);
    top.rels.push_back(std::move(br));
  }

  // Phase 2: the top block over composites and remaining base relations.
  for (int rel : query->base_rels()) {
    BlockRel br;
    br.name = query->range_var(rel).alias;
    br.scan_rel = rel;
    top.rels.push_back(std::move(br));
  }
  top.predicates = query->predicates();
  top.group_by = query->top_group_by();
  top.needed_output.insert(query->select_list().begin(),
                           query->select_list().end());

  AGGVIEW_ASSIGN_OR_RETURN(
      PlanPtr plan, OptimizeBlock(*query, &query->columns(), top,
                                  enum_options, counters));
  PlanBuilder builder(*query);
  plan = builder.Project(plan, query->select_list());
  return builder.Sort(plan, query->order_by());
}

}  // namespace

Result<OptimizedQuery> OptimizeQueryWithAggViews(const Query& query,
                                                 const OptimizerOptions& options) {
  AGGVIEW_RETURN_NOT_OK(query.Validate());

  // Preprocessing: predicate propagation across blocks (the prior art).
  Query base = query;
  if (options.propagate_predicates) {
    AGGVIEW_ASSIGN_OR_RETURN(base, PropagatePredicates(base));
  }

  // Section 5.3/5.4 step 0: shrink every view to its minimal invariant set;
  // the moved relations become part of B'. In paranoid mode every shrink
  // emits an invariant-grouping certificate that is verified on the spot
  // (against the pre-shrink query — the certificate describes the view as it
  // was when the claim was made) and kept for the audit trail.
  std::vector<InvariantCertificate> shrink_certs;
  int64_t base_certificates_verified = 0;
  if (options.shrink_views) {
    for (size_t i = 0; i < base.views().size(); ++i) {
      InvariantCertificate cert;
      Query before = base;
      AGGVIEW_ASSIGN_OR_RETURN(
          base, ShrinkViewToInvariantSet(base, i, nullptr,
                                         options.paranoid ? &cert : nullptr));
      if (options.paranoid) {
        AGGVIEW_RETURN_NOT_OK(VerifyInvariantCertificate(before, cert));
        ++base_certificates_verified;
        if (!cert.removed.empty()) shrink_certs.push_back(std::move(cert));
      }
    }
  }

  // Enumerate W assignments (one pull-up subset per view, mutually
  // disjoint).
  std::vector<std::vector<std::set<int>>> per_view_sets;
  for (size_t i = 0; i < base.views().size(); ++i) {
    per_view_sets.push_back(CandidatePullSets(base, i, options));
  }

  std::vector<std::vector<std::set<int>>> assignments;
  std::vector<std::set<int>> current(per_view_sets.size());
  std::function<void(size_t)> expand = [&](size_t view) {
    if (static_cast<int>(assignments.size()) >= kMaxAssignments) return;
    if (view == per_view_sets.size()) {
      assignments.push_back(current);
      return;
    }
    for (const std::set<int>& w : per_view_sets[view]) {
      bool disjoint = true;
      for (size_t prev = 0; prev < view && disjoint; ++prev) {
        for (int rel : w) {
          if (current[prev].count(rel) > 0) {
            disjoint = false;
            break;
          }
        }
      }
      if (!disjoint) continue;
      current[view] = w;
      expand(view + 1);
      current[view].clear();
    }
  };
  expand(0);
  if (assignments.empty()) assignments.push_back(current);

  OptimizedQuery best(base);
  EnumerationCounters counters;
  counters.certificates_verified += base_certificates_verified;

  for (const auto& assignment : assignments) {
    Query rewritten = base;
    TransformationAudit audit;
    audit.invariants = shrink_certs;
    bool feasible = true;
    for (size_t i = 0; i < assignment.size(); ++i) {
      if (assignment[i].empty()) continue;
      PullUpCertificate cert;
      auto pulled = PullUpIntoView(rewritten, i, assignment[i],
                                   options.paranoid ? &cert : nullptr);
      if (!pulled.ok()) {
        feasible = false;
        break;
      }
      rewritten = std::move(pulled).value();
      if (options.paranoid) {
        // The pulled relations' keys and the extended block's predicates are
        // recorded in the certificate; re-prove Definition 1's side condition
        // from the catalog before costing anything built on this rewrite.
        AGGVIEW_RETURN_NOT_OK(VerifyPullUpCertificate(rewritten, cert));
        ++counters.certificates_verified;
        audit.pullups.push_back(std::move(cert));
      }
    }
    if (!feasible) continue;

    auto plan = OptimizeRewritten(&rewritten, options, &counters);
    if (!plan.ok()) return plan.status();

    std::string description = DescribeAssignment(base, assignment);
    best.alternatives.push_back({description, (*plan)->cost});
    if (best.plan == nullptr || (*plan)->cost < best.plan->cost) {
      best.plan = std::move(plan).value();
      best.query = std::move(rewritten);
      best.description = std::move(description);
      best.audit = std::move(audit);
    }
  }

  if (best.plan == nullptr) {
    return Status::Internal("no feasible plan found");
  }

  // Unconditional no-worse guarantee: fall back to the traditional plan when
  // it is cheaper (the search space above includes it in spirit; estimation
  // asymmetries can not make us regress past it with this check in place).
  if (options.include_traditional_alternative) {
    OptimizerOptions traditional_options = TraditionalOptions();
    traditional_options.paranoid = options.paranoid;
    traditional_options.paranoid_dataflow = options.paranoid_dataflow;
    AGGVIEW_ASSIGN_OR_RETURN(
        OptimizedQuery traditional,
        OptimizeQueryWithAggViews(query, traditional_options));
    counters.joins_considered += traditional.counters.joins_considered;
    counters.groupby_placements += traditional.counters.groupby_placements;
    counters.subsets_stored += traditional.counters.subsets_stored;
    counters.plans_checked += traditional.counters.plans_checked;
    counters.certificates_verified += traditional.counters.certificates_verified;
    best.alternatives.push_back({"traditional two-phase",
                                 traditional.plan->cost});
    if (traditional.plan->cost < best.plan->cost) {
      best.plan = traditional.plan;
      best.query = std::move(traditional.query);
      best.description = "traditional two-phase";
      best.audit = std::move(traditional.audit);
    }
  }

  if (options.paranoid) {
    // Belt and braces: the winner was already checked at every DP insertion,
    // but Project/Sort are added after the enumerator — analyze the full
    // final plan and re-verify the audit trail once more.
    AnalysisOptions analysis;
    analysis.dataflow = options.paranoid_dataflow;
    AGGVIEW_RETURN_NOT_OK(AnalyzePlan(best.plan, best.query, analysis));
    AGGVIEW_RETURN_NOT_OK(VerifyAudit(best.query, best.audit));
  }

  best.counters = counters;
  return best;
}

}  // namespace aggview
