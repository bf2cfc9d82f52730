#include "optimizer/plan.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"
#include "storage/io_accountant.h"
#include "storage/table.h"

namespace aggview {

namespace {

/// Projects `available` (in order) to the columns in `needed`.
std::vector<ColId> ProjectColumns(const std::vector<ColId>& available,
                                  const std::set<ColId>& needed) {
  std::vector<ColId> out;
  for (ColId c : available) {
    if (needed.count(c) > 0) out.push_back(c);
  }
  return out;
}

/// Clamps `node`'s estimate into its facts: rows into [lo, hi], each
/// column's distinct count into its distinct bound.
void ClampEstimateToFacts(const ColumnCatalog& cat, PlanNode* node) {
  const NodeFacts& f = *node->facts;
  RelEstimate& est = node->est;
  est.rows = std::min(std::max(est.rows, f.card.lo), f.card.hi);
  for (auto& [col, cs] : est.cols) {
    if (const ColumnFacts* cf = f.Find(col)) {
      cs.distinct = std::min(cs.distinct, DistinctBound(*cf, cat.type(col)));
    }
  }
}

/// Cumulative cost of join `node` under its algorithm.
double JoinCost(const Query& query, const PlanNode& node) {
  const PlanNode& left = *node.left;
  const PlanNode& right = *node.right;
  double lp = left.OutputPages();
  double rp = right.OutputPages();
  double local = 0.0;
  double children = left.cost + right.cost;
  switch (node.algo) {
    case JoinAlgo::kBlockNestedLoop: {
      if (right.kind == PlanNode::Kind::kScan && right.scan_filter.empty()) {
        // Re-scan the base table every pass; the single child scan cost is
        // subsumed by the passes.
        const RangeVar& rv = query.range_var(right.rel_id);
        const TableDef& def = query.catalog().table(rv.table);
        double base_pages = static_cast<double>(
            def.data != nullptr ? def.data->page_count()
                                : PagesForRows(def.stats.row_count,
                                               def.schema.RowWidth()));
        children = left.cost;
        local = CostModel::BnlLocalCost(lp, base_pages);
      } else {
        // Materialize the inner once, then one read per outer block.
        local = CostModel::MaterializeCost(rp) + CostModel::BnlLocalCost(lp, rp);
      }
      break;
    }
    case JoinAlgo::kHash:
      local = CostModel::HashJoinLocalCost(lp, rp);
      break;
  }
  return children + local;
}

}  // namespace

PlanPtr PlanBuilder::Scan(int rel_id, std::vector<Predicate> local_preds,
                          const std::set<ColId>& needed) const {
  const RangeVar& rv = query_->range_var(rel_id);
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->rel_id = rel_id;
  node->scan_filter = std::move(local_preds);

  node->facts = std::make_shared<const NodeFacts>(
      ScanFacts(*query_, rel_id, node->scan_filter));
  RelEstimate base = Estimator::BaseRel(*query_, rel_id);
  node->est = Estimator::ApplyFilter(base, node->scan_filter);
  ClampEstimateToFacts(query_->columns(), node.get());

  // Projection: needed columns only, but never empty (a degenerate query may
  // need no column from a relation; keep the first so rows exist).
  std::vector<ColId> available = rv.columns;
  if (rv.rowid != kInvalidColId) available.push_back(rv.rowid);
  std::vector<ColId> cols = ProjectColumns(available, needed);
  if (cols.empty() && !available.empty()) cols.push_back(available[0]);
  node->output = RowLayout(cols);
  node->width = static_cast<double>(node->output.RowWidth(query_->columns()));

  const TableDef& def = query_->catalog().table(rv.table);
  double pages = static_cast<double>(def.data != nullptr
                                         ? def.data->page_count()
                                         : PagesForRows(def.stats.row_count,
                                                        def.schema.RowWidth()));
  node->cost = CostModel::ScanCost(pages);
  return node;
}

PlanPtr PlanBuilder::Filter(PlanPtr input, std::vector<Predicate> preds) const {
  if (preds.empty()) return input;
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kFilter;
  node->left = input;
  node->filter_preds = std::move(preds);
  node->facts = std::make_shared<const NodeFacts>(
      FilterFacts(*input->facts, node->filter_preds, query_->columns()));
  node->est = Estimator::ApplyFilter(input->est, node->filter_preds);
  ClampEstimateToFacts(query_->columns(), node.get());
  node->output = input->output;
  node->width = input->width;
  node->cost = input->cost;  // pipelined; no IO of its own
  return node;
}

PlanPtr PlanBuilder::Join(JoinAlgo algo, PlanPtr left, PlanPtr right,
                          std::vector<Predicate> preds,
                          const std::set<ColId>& needed,
                          bool left_outer) const {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kJoin;
  node->algo = algo;
  node->left_outer = left_outer;
  node->left = left;
  node->right = right;
  node->join_preds = std::move(preds);
  node->facts = std::make_shared<const NodeFacts>(
      JoinFacts(*left->facts, *right->facts, node->join_preds, left_outer,
                query_->columns()));
  node->est = Estimator::Join(left->est, right->est, node->join_preds);
  // Every left row of an outer join survives.
  if (left_outer) node->est.rows = std::max(node->est.rows, left->est.rows);
  ClampEstimateToFacts(query_->columns(), node.get());

  std::vector<ColId> cols;
  cols.reserve(left->output.columns().size() + right->output.columns().size());
  for (ColId c : left->output.columns()) cols.push_back(c);
  for (ColId c : right->output.columns()) cols.push_back(c);
  cols = ProjectColumns(cols, needed);
  if (cols.empty()) {
    // Keep one column so the relation is non-degenerate.
    if (!left->output.columns().empty()) {
      cols.push_back(left->output.columns()[0]);
    } else if (!right->output.columns().empty()) {
      cols.push_back(right->output.columns()[0]);
    }
  }
  node->output = RowLayout(cols);
  node->width = static_cast<double>(node->output.RowWidth(query_->columns()));

  node->cost = JoinCost(*query_, *node);
  return node;
}

PlanPtr PlanBuilder::LeftOuterJoin(PlanPtr left, PlanPtr right,
                                   std::vector<Predicate> preds,
                                   const std::set<ColId>& needed) const {
  bool equi =
      !SplitJoinPredicates(preds, left->output, right->output).keys.empty();
  return Join(equi ? JoinAlgo::kHash : JoinAlgo::kBlockNestedLoop,
              std::move(left), std::move(right), std::move(preds), needed,
              /*left_outer=*/true);
}

PlanPtr PlanBuilder::BestJoin(PlanPtr left, PlanPtr right,
                              std::vector<Predicate> preds,
                              const std::set<ColId>& needed) const {
  bool equi =
      !SplitJoinPredicates(preds, left->output, right->output).keys.empty();
  PlanPtr bnl = Join(JoinAlgo::kBlockNestedLoop, std::move(left),
                     std::move(right), std::move(preds), needed);
  if (!equi) return bnl;
  // The algorithms differ only in cost: share facts, estimate and layout.
  // Ties go to the block-nested-loop join.
  auto hash = std::make_shared<PlanNode>(*bnl);
  hash->algo = JoinAlgo::kHash;
  hash->cost = JoinCost(*query_, *hash);
  return hash->cost < bnl->cost ? hash : bnl;
}

PlanPtr PlanBuilder::GroupBy(PlanPtr input, GroupBySpec spec,
                             const std::set<ColId>& needed) const {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kGroupBy;
  node->left = input;
  node->facts = std::make_shared<const NodeFacts>(
      GroupByFacts(*input->facts, spec, query_->columns()));
  node->est = Estimator::GroupBy(input->est, spec);
  ClampEstimateToFacts(query_->columns(), node.get());

  std::vector<ColId> outputs = spec.OutputColumns();
  node->group_by = std::move(spec);
  std::vector<ColId> cols = ProjectColumns(outputs, needed);
  if (cols.empty() && !outputs.empty()) cols.push_back(outputs[0]);
  node->output = RowLayout(cols);
  node->width = static_cast<double>(node->output.RowWidth(query_->columns()));
  node->cost = input->cost + CostModel::HashAggLocalCost(input->OutputPages());
  return node;
}

PlanPtr PlanBuilder::Sort(PlanPtr input, std::vector<OrderKey> keys) const {
  if (keys.empty()) return input;
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kSort;
  node->left = input;
  node->sort_keys = std::move(keys);
  node->facts = input->facts;
  node->est = input->est;
  node->output = input->output;
  node->width = input->width;
  node->cost = input->cost + CostModel::SortCost(input->OutputPages());
  return node;
}

PlanPtr PlanBuilder::Project(PlanPtr input,
                             const std::vector<ColId>& select) const {
  bool same = input->output.columns() == select;
  if (same) return input;
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kFilter;  // filter with no predicates = project
  node->left = input;
  node->facts = std::make_shared<const NodeFacts>(
      FilterFacts(*input->facts, {}, query_->columns()));
  node->est = input->est;
  node->output = RowLayout(select);
  node->width = static_cast<double>(node->output.RowWidth(query_->columns()));
  node->cost = input->cost;
  return node;
}

std::string PlanNodeLabel(const PlanPtr& plan, const Query& query) {
  const ColumnCatalog& cat = query.columns();
  std::string out;
  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      const RangeVar& rv = query.range_var(plan->rel_id);
      out += StrFormat("Scan %s %s",
                       query.catalog().table(rv.table).name.c_str(),
                       rv.alias.c_str());
      for (const Predicate& p : plan->scan_filter) {
        out += " [" + p.ToString(cat) + "]";
      }
      break;
    }
    case PlanNode::Kind::kFilter: {
      out += "Filter";
      for (const Predicate& p : plan->filter_preds) {
        out += " [" + p.ToString(cat) + "]";
      }
      break;
    }
    case PlanNode::Kind::kJoin: {
      out += StrFormat("Join(%s%s)", JoinAlgoName(plan->algo),
                       plan->left_outer ? ", outer" : "");
      for (const Predicate& p : plan->join_preds) {
        out += " [" + p.ToString(cat) + "]";
      }
      break;
    }
    case PlanNode::Kind::kGroupBy: {
      out += "GroupBy " + plan->group_by.ToString(cat);
      break;
    }
    case PlanNode::Kind::kSort: {
      out += "Sort";
      for (const OrderKey& key : plan->sort_keys) {
        out += " [" + cat.name(key.column) +
               (key.descending ? " desc]" : "]");
      }
      break;
    }
  }
  return out;
}

namespace {

void PlanToStringRec(const PlanPtr& plan, const Query& query, int indent,
                     std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *out += pad + PlanNodeLabel(plan, query);
  *out += StrFormat("  {rows=%.1f cost=%.1f}\n", plan->est.rows, plan->cost);
  if (plan->left != nullptr) PlanToStringRec(plan->left, query, indent + 1, out);
  if (plan->right != nullptr) {
    PlanToStringRec(plan->right, query, indent + 1, out);
  }
}

}  // namespace

std::string PlanToString(const PlanPtr& plan, const Query& query) {
  std::string out;
  PlanToStringRec(plan, query, 0, &out);
  return out;
}

}  // namespace aggview
