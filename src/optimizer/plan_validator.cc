#include "optimizer/plan_validator.h"

#include <algorithm>

#include "common/string_util.h"

namespace aggview {

namespace {

Status NodeError(const PlanPtr& plan, const Query& query,
                 const std::string& what) {
  return Status::Internal(what + "\nin node:\n" + PlanToString(plan, query));
}

Status CheckColumns(const PlanPtr& plan, const Query& query,
                    const std::set<ColId>& referenced,
                    const std::set<ColId>& available, const char* what) {
  for (ColId c : referenced) {
    if (available.count(c) == 0) {
      return NodeError(plan, query,
                       StrFormat("%s references unavailable column '%s'", what,
                                 query.columns().name(c).c_str()));
    }
  }
  return Status::OK();
}

Status Validate(const PlanPtr& plan, const Query& query) {
  if (plan == nullptr) return Status::Internal("null plan node");
  if (plan->est.rows < 0.0) {
    return NodeError(plan, query, "negative row estimate");
  }
  if (plan->cost < 0.0) {
    return NodeError(plan, query, "negative cost");
  }

  std::set<ColId> outputs(plan->output.columns().begin(),
                          plan->output.columns().end());

  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      const RangeVar& rv = query.range_var(plan->rel_id);
      std::set<ColId> table_cols = rv.ColumnSet();
      AGGVIEW_RETURN_NOT_OK(CheckColumns(
          plan, query, ConjunctionColumns(plan->scan_filter), table_cols,
          "scan filter"));
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, outputs, table_cols, "scan output"));
      return Status::OK();
    }
    case PlanNode::Kind::kFilter: {
      if (plan->left == nullptr) {
        return NodeError(plan, query, "filter without input");
      }
      AGGVIEW_RETURN_NOT_OK(Validate(plan->left, query));
      std::set<ColId> in(plan->left->output.columns().begin(),
                         plan->left->output.columns().end());
      AGGVIEW_RETURN_NOT_OK(CheckColumns(
          plan, query, ConjunctionColumns(plan->filter_preds), in,
          "filter predicate"));
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, outputs, in, "filter output"));
      if (plan->cost + 1e-9 < plan->left->cost) {
        return NodeError(plan, query, "cost decreased at filter");
      }
      return Status::OK();
    }
    case PlanNode::Kind::kJoin: {
      if (plan->left == nullptr || plan->right == nullptr) {
        return NodeError(plan, query, "join missing an input");
      }
      AGGVIEW_RETURN_NOT_OK(Validate(plan->left, query));
      AGGVIEW_RETURN_NOT_OK(Validate(plan->right, query));
      std::set<ColId> in(plan->left->output.columns().begin(),
                         plan->left->output.columns().end());
      in.insert(plan->right->output.columns().begin(),
                plan->right->output.columns().end());
      AGGVIEW_RETURN_NOT_OK(CheckColumns(
          plan, query, ConjunctionColumns(plan->join_preds), in,
          "join predicate"));
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, outputs, in, "join output"));
      if (plan->algo == JoinAlgo::kHash &&
          SplitJoinPredicates(plan->join_preds, plan->left->output,
                              plan->right->output)
              .keys.empty()) {
        return NodeError(plan, query, "hash join without equi-join conjunct");
      }
      if (plan->cost + 1e-9 < std::max(plan->left->cost, plan->right->cost)) {
        return NodeError(plan, query, "cost decreased at join");
      }
      return Status::OK();
    }
    case PlanNode::Kind::kSort: {
      if (plan->left == nullptr) {
        return NodeError(plan, query, "sort without input");
      }
      AGGVIEW_RETURN_NOT_OK(Validate(plan->left, query));
      std::set<ColId> in(plan->left->output.columns().begin(),
                         plan->left->output.columns().end());
      std::set<ColId> key_cols;
      for (const OrderKey& key : plan->sort_keys) key_cols.insert(key.column);
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, key_cols, in, "sort key"));
      if (plan->cost + 1e-9 < plan->left->cost) {
        return NodeError(plan, query, "cost decreased at sort");
      }
      return Status::OK();
    }
    case PlanNode::Kind::kGroupBy: {
      if (plan->left == nullptr) {
        return NodeError(plan, query, "group-by without input");
      }
      AGGVIEW_RETURN_NOT_OK(Validate(plan->left, query));
      std::set<ColId> in(plan->left->output.columns().begin(),
                         plan->left->output.columns().end());
      const GroupBySpec& gb = plan->group_by;
      std::set<ColId> grouping_refs(gb.grouping.begin(), gb.grouping.end());
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, grouping_refs, in, "grouping column"));
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, gb.AggArgSet(), in, "aggregate argument"));
      std::set<ColId> gb_outputs(gb.grouping.begin(), gb.grouping.end());
      for (const AggregateCall& a : gb.aggregates) gb_outputs.insert(a.output);
      AGGVIEW_RETURN_NOT_OK(CheckColumns(
          plan, query, ConjunctionColumns(gb.having), gb_outputs, "HAVING"));
      AGGVIEW_RETURN_NOT_OK(
          CheckColumns(plan, query, outputs, gb_outputs, "group-by output"));
      // A scalar aggregate legitimately emits one row over empty input;
      // grouped output is bounded by the input.
      double gb_cap = gb.grouping.empty() ? std::max(plan->left->est.rows, 1.0)
                                          : plan->left->est.rows;
      if (plan->est.rows > gb_cap + 1e-6) {
        return NodeError(plan, query, "group-by increased the row estimate");
      }
      if (plan->cost + 1e-9 < plan->left->cost) {
        return NodeError(plan, query, "cost decreased at group-by");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Status ValidatePlan(const PlanPtr& plan, const Query& query) {
  return Validate(plan, query);
}

}  // namespace aggview
