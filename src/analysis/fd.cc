#include "analysis/fd.h"

#include <algorithm>

namespace aggview {

void FdSet::AddFd(std::set<ColId> lhs, std::set<ColId> rhs) {
  if (lhs.empty()) {
    constants_.insert(rhs.begin(), rhs.end());
    return;
  }
  fds_.push_back({std::move(lhs), std::move(rhs)});
}

void FdSet::AddConstant(ColId col) { constants_.insert(col); }

void FdSet::AddEquivalence(ColId a, ColId b) {
  AddFd({a}, {b});
  AddFd({b}, {a});
}

void FdSet::AddKey(const std::vector<ColId>& key,
                   const std::set<ColId>& all_cols) {
  if (key.empty()) return;
  AddFd(std::set<ColId>(key.begin(), key.end()), all_cols);
}

void FdSet::AddPredicates(const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    ColId a, b;
    if (p.AsColumnEquality(&a, &b)) {
      AddEquivalence(a, b);
      continue;
    }
    ColId col;
    CompareOp op;
    Value v;
    if (p.AsColumnVsLiteral(&col, &op, &v) && op == CompareOp::kEq) {
      AddConstant(col);
    }
  }
}

void FdSet::Merge(const FdSet& other) {
  fds_.insert(fds_.end(), other.fds_.begin(), other.fds_.end());
  constants_.insert(other.constants_.begin(), other.constants_.end());
}

std::set<ColId> FdSet::Closure(std::set<ColId> start) const {
  start.insert(constants_.begin(), constants_.end());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fd& fd : fds_) {
      bool applies = std::all_of(fd.lhs.begin(), fd.lhs.end(), [&](ColId c) {
        return start.count(c) > 0;
      });
      if (!applies) continue;
      for (ColId c : fd.rhs) {
        if (start.insert(c).second) changed = true;
      }
    }
  }
  return start;
}

bool FdSet::Determines(const std::set<ColId>& lhs,
                       const std::set<ColId>& rhs) const {
  std::set<ColId> closure = Closure(lhs);
  return std::all_of(rhs.begin(), rhs.end(),
                     [&](ColId c) { return closure.count(c) > 0; });
}

std::vector<std::vector<ColId>> RangeVarKeys(const Query& query, int rel_id) {
  const RangeVar& rv = query.range_var(rel_id);
  const TableDef& def = query.catalog().table(rv.table);
  auto key_to_cols = [&](const std::vector<int>& key) {
    std::vector<ColId> out;
    out.reserve(key.size());
    for (int k : key) out.push_back(rv.columns[static_cast<size_t>(k)]);
    return out;
  };
  std::vector<std::vector<ColId>> keys;
  if (!def.primary_key.empty()) keys.push_back(key_to_cols(def.primary_key));
  for (const auto& uk : def.unique_keys) {
    if (!uk.empty()) keys.push_back(key_to_cols(uk));
  }
  if (rv.rowid != kInvalidColId) keys.push_back({rv.rowid});
  return keys;
}

FdSet RangeVarFds(const Query& query, int rel_id) {
  FdSet fds;
  std::set<ColId> cols = query.range_var(rel_id).ColumnSet();
  for (const std::vector<ColId>& key : RangeVarKeys(query, rel_id)) {
    fds.AddKey(key, cols);
  }
  return fds;
}

namespace {

/// Concatenations of one key per side, capped to keep the product small.
std::vector<std::vector<ColId>> CombineKeys(
    const std::vector<std::vector<ColId>>& left,
    const std::vector<std::vector<ColId>>& right) {
  constexpr size_t kMaxKeys = 8;
  std::vector<std::vector<ColId>> out;
  for (const auto& l : left) {
    for (const auto& r : right) {
      if (out.size() >= kMaxKeys) return out;
      std::vector<ColId> k = l;
      k.insert(k.end(), r.begin(), r.end());
      out.push_back(std::move(k));
    }
  }
  return out;
}

Result<PlanProperties> Derive(const PlanPtr& plan, const Query& query) {
  if (plan == nullptr) {
    return Status::InvalidArgument("cannot derive properties of a null plan");
  }
  PlanProperties props;
  props.columns.insert(plan->output.columns().begin(),
                       plan->output.columns().end());

  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      props.fds = RangeVarFds(query, plan->rel_id);
      props.keys = RangeVarKeys(query, plan->rel_id);
      props.fds.AddPredicates(plan->scan_filter);
      return props;
    }
    case PlanNode::Kind::kFilter: {
      AGGVIEW_ASSIGN_OR_RETURN(PlanProperties child,
                               Derive(plan->left, query));
      props.fds = std::move(child.fds);
      props.keys = std::move(child.keys);
      props.fds.AddPredicates(plan->filter_preds);
      return props;
    }
    case PlanNode::Kind::kJoin: {
      AGGVIEW_ASSIGN_OR_RETURN(PlanProperties left,
                               Derive(plan->left, query));
      AGGVIEW_ASSIGN_OR_RETURN(PlanProperties right,
                               Derive(plan->right, query));
      props.fds = std::move(left.fds);
      props.fds.Merge(right.fds);
      // Predicate-derived FDs do not hold on a left outer join's padding
      // rows (the right side is NULL there), so only inner joins keep them.
      if (!plan->left_outer) props.fds.AddPredicates(plan->join_preds);
      props.keys = CombineKeys(left.keys, right.keys);
      return props;
    }
    case PlanNode::Kind::kGroupBy: {
      AGGVIEW_ASSIGN_OR_RETURN(PlanProperties child,
                               Derive(plan->left, query));
      // Output rows are one representative per group: FDs of the input
      // survive the projection, and the grouping columns become a key.
      props.fds = std::move(child.fds);
      std::set<ColId> outputs(props.columns);
      for (ColId g : plan->group_by.grouping) outputs.insert(g);
      for (const AggregateCall& a : plan->group_by.aggregates) {
        outputs.insert(a.output);
      }
      std::set<ColId> grouping(plan->group_by.grouping.begin(),
                               plan->group_by.grouping.end());
      props.fds.AddFd(grouping, outputs);
      props.keys = {plan->group_by.grouping};
      props.fds.AddPredicates(plan->group_by.having);
      return props;
    }
    case PlanNode::Kind::kSort: {
      AGGVIEW_ASSIGN_OR_RETURN(PlanProperties child,
                               Derive(plan->left, query));
      props.fds = std::move(child.fds);
      props.keys = std::move(child.keys);
      return props;
    }
  }
  return Status::Internal("unknown plan node kind in FD derivation");
}

}  // namespace

Result<PlanProperties> DerivePlanProperties(const PlanPtr& plan,
                                            const Query& query) {
  return Derive(plan, query);
}

}  // namespace aggview
