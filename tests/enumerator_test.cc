#include <gtest/gtest.h>

#include "optimizer/join_enumerator.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Counts plan nodes of a given kind in a plan tree.
int CountNodes(const PlanPtr& plan, PlanNode::Kind kind) {
  if (plan == nullptr) return 0;
  int n = (plan->kind == kind) ? 1 : 0;
  return n + CountNodes(plan->left, kind) + CountNodes(plan->right, kind);
}

/// True when some GroupBy node has a Join above it (early aggregation).
bool HasGroupByBelowJoin(const PlanPtr& plan, bool under_join = false) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanNode::Kind::kGroupBy && under_join) return true;
  bool join = under_join || plan->kind == PlanNode::Kind::kJoin;
  return HasGroupByBelowJoin(plan->left, join) ||
         HasGroupByBelowJoin(plan->right, join);
}

class EnumeratorTest : public ::testing::Test {
 protected:
  EnumeratorTest() : fixture_(MakeEmpDept(Options())), q_(fixture_.catalog.get()) {}

  static EmpDeptOptions Options() {
    EmpDeptOptions o;
    o.num_employees = 90'000;  // emp spans hundreds of pages: IO matters
    o.num_departments = 2'000;
    return o;
  }

  BlockRel ScanRel(int rel_id) {
    BlockRel r;
    r.name = q_.range_var(rel_id).alias;
    r.scan_rel = rel_id;
    return r;
  }

  EmpDeptFixture fixture_;
  Query q_;
};

TEST_F(EnumeratorTest, SingleRelationBlock) {
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  q_.base_rels() = {e};
  ColId eno = q_.range_var(e).columns[0];
  q_.select_list() = {eno};

  BlockSpec block;
  block.rels = {ScanRel(e)};
  block.needed_output = {eno};
  EnumerationCounters counters;
  auto plan = OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{},
                            &counters);
  ASSERT_OK(plan);
  EXPECT_EQ((*plan)->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(counters.subsets_stored, 1);
}

TEST_F(EnumeratorTest, TwoWayJoinPicksHashForEquiJoin) {
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  int d = q_.AddRangeVar(fixture_.tables.dept, "d");
  q_.base_rels() = {e, d};
  ColId e_dno = q_.range_var(e).columns[1];
  ColId d_dno = q_.range_var(d).columns[0];
  q_.select_list() = {e_dno};

  BlockSpec block;
  block.rels = {ScanRel(e), ScanRel(d)};
  block.predicates = {EqCols(e_dno, d_dno)};
  block.needed_output = {e_dno};
  auto plan = OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{}, nullptr);
  ASSERT_OK(plan);
  EXPECT_EQ(CountNodes(*plan, PlanNode::Kind::kJoin), 1);
}

TEST_F(EnumeratorTest, LocalPredicatesFoldIntoScans) {
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  int d = q_.AddRangeVar(fixture_.tables.dept, "d");
  q_.base_rels() = {e, d};
  ColId e_dno = q_.range_var(e).columns[1];
  ColId age = q_.range_var(e).columns[3];
  ColId d_dno = q_.range_var(d).columns[0];
  q_.select_list() = {e_dno};

  BlockSpec block;
  block.rels = {ScanRel(e), ScanRel(d)};
  block.predicates = {EqCols(e_dno, d_dno),
                      Cmp(Col(age), CompareOp::kLt, LitInt(22))};
  block.needed_output = {e_dno};
  auto plan = OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{}, nullptr);
  ASSERT_OK(plan);
  // The age predicate must be applied at a scan, not at the join.
  std::function<bool(const PlanPtr&)> scan_has_filter =
      [&](const PlanPtr& p) -> bool {
    if (p == nullptr) return false;
    if (p->kind == PlanNode::Kind::kScan && !p->scan_filter.empty()) return true;
    return scan_has_filter(p->left) || scan_has_filter(p->right);
  };
  EXPECT_TRUE(scan_has_filter(*plan));
}

TEST_F(EnumeratorTest, DpMatchesBruteForceOnChainQuery) {
  // Four-relation chain over dept/emp copies; greedy off, no group-by: the
  // DP must find the cheapest left-deep order, verified by brute force.
  int r0 = q_.AddRangeVar(fixture_.tables.dept, "a");
  int r1 = q_.AddRangeVar(fixture_.tables.emp, "b");
  int r2 = q_.AddRangeVar(fixture_.tables.dept, "c");
  int r3 = q_.AddRangeVar(fixture_.tables.emp, "d");
  q_.base_rels() = {r0, r1, r2, r3};
  ColId a_dno = q_.range_var(r0).columns[0];
  ColId b_dno = q_.range_var(r1).columns[1];
  ColId b_eno = q_.range_var(r1).columns[0];
  ColId c_dno = q_.range_var(r2).columns[0];
  ColId d_eno = q_.range_var(r3).columns[0];
  q_.select_list() = {a_dno};

  std::vector<Predicate> preds = {EqCols(a_dno, b_dno), EqCols(b_dno, c_dno),
                                  EqCols(b_eno, d_eno)};
  BlockSpec block;
  block.rels = {ScanRel(r0), ScanRel(r1), ScanRel(r2), ScanRel(r3)};
  block.predicates = preds;
  block.needed_output = {a_dno};

  EnumeratorOptions opts;
  opts.greedy_aggregation = false;
  auto dp_plan = OptimizeBlock(q_, &q_.columns(), block, opts, nullptr);
  ASSERT_OK(dp_plan);

  // Brute force over all 24 left-deep permutations, with the DP's exact
  // projection policy (keep select columns + columns of not-yet-applied
  // predicates).
  PlanBuilder builder(q_);
  auto needed_for = [&](const std::set<ColId>& have) {
    std::set<ColId> needed = {a_dno};
    for (const Predicate& p : preds) {
      if (!p.BoundBy(have)) {
        for (ColId c : p.Columns()) needed.insert(c);
      }
    }
    return needed;
  };
  std::vector<int> rels = {r0, r1, r2, r3};
  std::sort(rels.begin(), rels.end());
  double best = 1e300;
  do {
    // Mirror the DP's System-R restriction: only orders whose every prefix
    // extension shares a predicate with the prefix (cross products allowed
    // only when no relation connects).
    bool reachable = true;
    for (size_t i = 1; i < rels.size() && reachable; ++i) {
      std::set<ColId> prefix_cols;
      for (size_t k = 0; k < i; ++k) {
        auto cs = q_.range_var(rels[k]).ColumnSet();
        prefix_cols.insert(cs.begin(), cs.end());
      }
      auto connects = [&](int rel) {
        for (const Predicate& p : preds) {
          if (p.References(prefix_cols) &&
              p.References(q_.range_var(rel).ColumnSet())) {
            return true;
          }
        }
        return false;
      };
      bool any_connected = false;
      for (size_t k = i; k < rels.size(); ++k) {
        if (connects(rels[k])) any_connected = true;
      }
      if (any_connected && !connects(rels[i])) reachable = false;
    }
    if (!reachable) continue;
    auto cols_of = [&](int upto) {
      std::set<ColId> cols;
      for (int i = 0; i <= upto; ++i) {
        auto cs = q_.range_var(rels[static_cast<size_t>(i)]).ColumnSet();
        cols.insert(cs.begin(), cs.end());
      }
      return cols;
    };
    auto leaf = [&](int rel) {
      std::vector<Predicate> local;
      for (const Predicate& p : preds) {
        if (p.BoundBy(q_.range_var(rel).ColumnSet())) local.push_back(p);
      }
      return builder.Scan(rel, local,
                          needed_for(q_.range_var(rel).ColumnSet()));
    };
    PlanPtr plan = leaf(rels[0]);
    for (size_t i = 1; i < rels.size(); ++i) {
      std::set<ColId> before = cols_of(static_cast<int>(i) - 1);
      std::set<ColId> after = cols_of(static_cast<int>(i));
      std::vector<Predicate> applicable;
      for (const Predicate& p : preds) {
        if (p.BoundBy(after) && !p.BoundBy(before) &&
            !p.BoundBy(q_.range_var(rels[i]).ColumnSet())) {
          applicable.push_back(p);
        }
      }
      plan = builder.BestJoin(plan, leaf(rels[i]), applicable,
                              needed_for(after));
    }
    best = std::min(best, plan->cost);
  } while (std::next_permutation(rels.begin(), rels.end()));

  EXPECT_NEAR((*dp_plan)->cost, best, best * 1e-9);
}

TEST(EnumeratorScenario, GreedyPushesGroupByWhenCheaper) {
  // Example 2 shape: G(emp ⋈ dept) grouped by (e.dno, d.budget). The
  // pre-join aggregation input (32k emp rows) fits in memory while the
  // post-join aggregation input (wider rows) spills — so pushing the
  // group-by below the join is strictly cheaper, and the greedy rule takes
  // it. The invariant conditions hold because dept joins on its key.
  EmpDeptOptions data;
  data.num_employees = 32'000;
  data.num_departments = 2'000;
  EmpDeptFixture fixture = MakeEmpDept(data);
  Query q(fixture.catalog.get());
  int e = q.AddRangeVar(fixture.tables.emp, "e");
  int d = q.AddRangeVar(fixture.tables.dept, "d");
  q.base_rels() = {e, d};
  ColId e_dno = q.range_var(e).columns[1];
  ColId sal = q.range_var(e).columns[2];
  ColId d_dno = q.range_var(d).columns[0];
  ColId budget = q.range_var(d).columns[1];
  ColId avg_out = q.columns().Add("avg(e.sal)", DataType::kDouble);
  q.select_list() = {e_dno, budget, avg_out};
  GroupBySpec gb;
  gb.grouping = {e_dno, budget};
  gb.aggregates = {{AggKind::kAvg, {sal}, avg_out}};
  q.top_group_by() = gb;

  BlockSpec block;
  BlockRel re, rd;
  re.name = "e";
  re.scan_rel = e;
  rd.name = "d";
  rd.scan_rel = d;
  block.rels = {re, rd};
  block.predicates = {EqCols(e_dno, d_dno)};
  block.group_by = gb;
  block.needed_output = {e_dno, budget, avg_out};

  EnumeratorOptions traditional;
  traditional.greedy_aggregation = false;
  auto lazy = OptimizeBlock(q, &q.columns(), block, traditional, nullptr);
  ASSERT_OK(lazy);

  EnumerationCounters counters;
  auto greedy = OptimizeBlock(q, &q.columns(), block, EnumeratorOptions{},
                              &counters);
  ASSERT_OK(greedy);

  EXPECT_LE((*greedy)->cost, (*lazy)->cost);
  EXPECT_LT((*greedy)->cost, (*lazy)->cost);  // strictly better at this size
  EXPECT_TRUE(HasGroupByBelowJoin(*greedy));
  EXPECT_GT(counters.groupby_placements, 0);

  // And the two plans agree on results (projected to a common layout —
  // block plans choose their own column order).
  PlanBuilder pb(q);
  auto r_lazy = ExecutePlan(pb.Project(*lazy, q.select_list()), q);
  ASSERT_OK(r_lazy);
  auto r_greedy =
      ExecutePlan(pb.Project(*greedy, q.select_list()), q);
  ASSERT_OK(r_greedy);
  EXPECT_EQ(r_lazy->Fingerprint(), r_greedy->Fingerprint());
}

TEST_F(EnumeratorTest, GreedyNeverWorseAcrossKnobs) {
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  int d = q_.AddRangeVar(fixture_.tables.dept, "d");
  q_.base_rels() = {e, d};
  ColId e_dno = q_.range_var(e).columns[1];
  ColId sal = q_.range_var(e).columns[2];
  ColId d_dno = q_.range_var(d).columns[0];
  ColId budget = q_.range_var(d).columns[1];
  ColId out = q_.columns().Add("sum(e.sal)", DataType::kDouble);
  q_.select_list() = {e_dno, out};
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kSum, {sal}, out}};
  q_.top_group_by() = gb;

  for (double cutoff : {200'000.0, 900'000.0, 4'000'000.0}) {
    BlockSpec block;
    block.rels = {ScanRel(e), ScanRel(d)};
    block.predicates = {EqCols(e_dno, d_dno),
                        Cmp(Col(budget), CompareOp::kLt, LitReal(cutoff))};
    block.group_by = gb;
    block.needed_output = {e_dno, out};

    EnumeratorOptions traditional;
    traditional.greedy_aggregation = false;
    auto lazy = OptimizeBlock(q_, &q_.columns(), block, traditional, nullptr);
    ASSERT_OK(lazy);
    auto greedy =
        OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{}, nullptr);
    ASSERT_OK(greedy);
    EXPECT_LE((*greedy)->cost, (*lazy)->cost) << "cutoff " << cutoff;
  }
}

TEST(EnumeratorScenario, CoalescingUsedWhenInvariantInapplicable) {
  // Fan-out self-join on dno (no key coverage): invariant grouping is
  // blocked (SUM would be inflated), but coalescing pre-aggregation still
  // applies. Pre-aggregating shrinks the outer side to a handful of pages,
  // making the join locally cheaper than joining the raw inputs, so the
  // greedy rule fires.
  EmpDeptOptions data;
  data.num_employees = 32'000;
  data.num_departments = 2'000;
  EmpDeptFixture fixture = MakeEmpDept(data);
  Query q(fixture.catalog.get());
  int e = q.AddRangeVar(fixture.tables.emp, "e");
  int f = q.AddRangeVar(fixture.tables.emp, "f");
  q.base_rels() = {e, f};
  ColId e_dno = q.range_var(e).columns[1];
  ColId sal = q.range_var(e).columns[2];
  ColId f_dno = q.range_var(f).columns[1];
  ColId out = q.columns().Add("sum(e.sal)", DataType::kDouble);
  q.select_list() = {e_dno, out};
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kSum, {sal}, out}};
  q.top_group_by() = gb;

  BlockSpec block;
  BlockRel re, rf;
  re.name = "e";
  re.scan_rel = e;
  rf.name = "f";
  rf.scan_rel = f;
  block.rels = {re, rf};
  block.predicates = {EqCols(e_dno, f_dno)};
  block.group_by = gb;
  block.needed_output = {e_dno, out};

  EnumeratorOptions no_coalesce;
  no_coalesce.enable_coalescing = false;
  auto without = OptimizeBlock(q, &q.columns(), block, no_coalesce, nullptr);
  ASSERT_OK(without);
  // Invariant grouping inapplicable -> no early aggregation at all.
  EXPECT_FALSE(HasGroupByBelowJoin(*without));

  auto with = OptimizeBlock(q, &q.columns(), block, EnumeratorOptions{}, nullptr);
  ASSERT_OK(with);
  EXPECT_TRUE(HasGroupByBelowJoin(*with));
  EXPECT_LT((*with)->cost, (*without)->cost);

  // Both plans agree on results (multiplicity preserved by eager agg).
  PlanBuilder pb(q);
  auto r1 = ExecutePlan(pb.Project(*without, q.select_list()), q);
  ASSERT_OK(r1);
  auto r2 = ExecutePlan(pb.Project(*with, q.select_list()), q);
  ASSERT_OK(r2);
  EXPECT_EQ(r1->Fingerprint(), r2->Fingerprint());
}

TEST_F(EnumeratorTest, CountersScaleWithOptions) {
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  int d = q_.AddRangeVar(fixture_.tables.dept, "d");
  int d2 = q_.AddRangeVar(fixture_.tables.dept, "d2");
  q_.base_rels() = {e, d, d2};
  ColId e_dno = q_.range_var(e).columns[1];
  ColId e_eno = q_.range_var(e).columns[0];
  ColId sal = q_.range_var(e).columns[2];
  ColId d_dno = q_.range_var(d).columns[0];
  ColId d2_dno = q_.range_var(d2).columns[0];
  ColId out = q_.columns().Add("sum", DataType::kDouble);
  q_.select_list() = {e_dno, out};
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kSum, {sal}, out}};
  q_.top_group_by() = gb;
  (void)e_eno;

  BlockSpec block;
  block.rels = {ScanRel(e), ScanRel(d), ScanRel(d2)};
  block.predicates = {EqCols(e_dno, d_dno), EqCols(e_dno, d2_dno)};
  block.group_by = gb;
  block.needed_output = {e_dno, out};

  EnumerationCounters with_greedy, without_greedy;
  EnumeratorOptions off;
  off.greedy_aggregation = false;
  ASSERT_OK(OptimizeBlock(q_, &q_.columns(), block, off, &without_greedy));
  ASSERT_OK(OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{},
                          &with_greedy));
  EXPECT_GT(with_greedy.joins_considered, without_greedy.joins_considered);
  EXPECT_GT(with_greedy.groupby_placements, 0);
  EXPECT_EQ(without_greedy.groupby_placements, 0);
}

TEST_F(EnumeratorTest, CompositeLeafGetsLocalFilter) {
  // Build a composite (aggregated emp) and join it with dept in a block
  // whose predicates include a filter over the composite's agg output.
  int e = q_.AddRangeVar(fixture_.tables.emp, "e");
  int d = q_.AddRangeVar(fixture_.tables.dept, "d");
  q_.base_rels() = {e, d};
  ColId e_dno = q_.range_var(e).columns[1];
  ColId sal = q_.range_var(e).columns[2];
  ColId d_dno = q_.range_var(d).columns[0];
  ColId avg_out = q_.columns().Add("avg(e.sal)", DataType::kDouble);
  q_.select_list() = {avg_out};

  PlanBuilder b(q_);
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kAvg, {sal}, avg_out}};
  PlanPtr composite =
      b.GroupBy(b.Scan(e, {}, {e_dno, sal}), gb, {e_dno, avg_out});

  BlockSpec block;
  BlockRel view_rel;
  view_rel.name = "v";
  view_rel.composite = composite;
  view_rel.keys.push_back({e_dno});
  block.rels = {view_rel, ScanRel(d)};
  block.predicates = {EqCols(e_dno, d_dno),
                      Cmp(Col(avg_out), CompareOp::kGt, LitReal(50'000.0))};
  block.needed_output = {avg_out};
  auto plan = OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{},
                            nullptr);
  ASSERT_OK(plan);
  // The avg filter must be applied (as a Filter over the composite).
  std::function<bool(const PlanPtr&)> has_filter =
      [&](const PlanPtr& p) -> bool {
    if (p == nullptr) return false;
    if (p->kind == PlanNode::Kind::kFilter && !p->filter_preds.empty()) {
      return true;
    }
    return has_filter(p->left) || has_filter(p->right);
  };
  EXPECT_TRUE(has_filter(*plan));
  auto result = ExecutePlan(*plan, q_);
  ASSERT_OK(result);
  for (const Row& row : result->rows) {
    EXPECT_GT(row[0].AsDouble(), 50'000.0);
  }
}

TEST_F(EnumeratorTest, OversizedBlockRejected) {
  BlockSpec block;
  for (int i = 0; i < 21; ++i) {
    int rel = q_.AddRangeVar(fixture_.tables.dept,
                             std::string("d").append(std::to_string(i)));
    block.rels.push_back(ScanRel(rel));
  }
  EXPECT_FALSE(
      OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{}, nullptr)
          .ok());
}

TEST_F(EnumeratorTest, EmptyBlockRejected) {
  BlockSpec block;
  EXPECT_FALSE(
      OptimizeBlock(q_, &q_.columns(), block, EnumeratorOptions{}, nullptr).ok());
}

}  // namespace
}  // namespace aggview
