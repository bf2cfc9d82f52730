#include <gtest/gtest.h>

#include "optimizer/plan_validator.h"
#include "test_util.h"

namespace aggview {
namespace {

class PlanValidatorTest : public ::testing::Test {
 protected:
  PlanValidatorTest()
      : fixture_(MakeEmpDept(Options())), q_(fixture_.catalog.get()) {
    e_ = q_.AddRangeVar(fixture_.tables.emp, "e");
    d_ = q_.AddRangeVar(fixture_.tables.dept, "d");
    q_.base_rels() = {e_, d_};
    eno_ = q_.range_var(e_).columns[0];
    e_dno_ = q_.range_var(e_).columns[1];
    sal_ = q_.range_var(e_).columns[2];
    d_dno_ = q_.range_var(d_).columns[0];
    q_.select_list() = {eno_};
  }

  static EmpDeptOptions Options() {
    EmpDeptOptions o;
    o.num_employees = 500;
    o.num_departments = 20;
    return o;
  }

  EmpDeptFixture fixture_;
  Query q_;
  int e_, d_;
  ColId eno_, e_dno_, sal_, d_dno_;
};

TEST_F(PlanValidatorTest, AcceptsWellFormedPlans) {
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, e_dno_, d_dno_};
  PlanPtr plan = b.Join(JoinAlgo::kHash, b.Scan(e_, {}, needed),
                        b.Scan(d_, {}, needed), {EqCols(e_dno_, d_dno_)},
                        needed);
  EXPECT_OK(ValidatePlan(plan, q_));
}

TEST_F(PlanValidatorTest, AcceptsOptimizerOutput) {
  auto query = ParseAndBind(*fixture_.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  EXPECT_OK(ValidatePlan(optimized->plan, optimized->query));
}

TEST_F(PlanValidatorTest, RejectsNullPlan) {
  EXPECT_FALSE(ValidatePlan(nullptr, q_).ok());
}

TEST_F(PlanValidatorTest, RejectsScanProjectingForeignColumn) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {eno_});
  // Corrupt: make the scan claim it outputs a dept column.
  auto broken = std::make_shared<PlanNode>(*scan);
  broken->output = RowLayout({eno_, d_dno_});
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

TEST_F(PlanValidatorTest, RejectsJoinPredicateOnMissingColumn) {
  PlanBuilder b(q_);
  // sal is projected away before the join but referenced by its predicate.
  PlanPtr left = b.Scan(e_, {}, {eno_});
  PlanPtr right = b.Scan(d_, {}, {d_dno_});
  auto broken = std::make_shared<PlanNode>();
  broken->kind = PlanNode::Kind::kJoin;
  broken->algo = JoinAlgo::kBlockNestedLoop;
  broken->left = left;
  broken->right = right;
  broken->join_preds = {Cmp(Col(sal_), CompareOp::kGt, LitInt(0))};
  broken->output = RowLayout({eno_, d_dno_});
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

TEST_F(PlanValidatorTest, RejectsHashJoinWithoutEquiJoin) {
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, sal_, d_dno_};
  PlanPtr left = b.Scan(e_, {}, needed);
  PlanPtr right = b.Scan(d_, {}, needed);
  auto broken = std::make_shared<PlanNode>();
  broken->kind = PlanNode::Kind::kJoin;
  broken->algo = JoinAlgo::kHash;
  broken->left = left;
  broken->right = right;
  broken->join_preds = {Cmp(Col(sal_), CompareOp::kGt, LitInt(0))};
  broken->output = RowLayout({eno_});
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

TEST_F(PlanValidatorTest, RejectsHavingOnNonOutput) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {e_dno_, sal_});
  GroupBySpec gb;
  gb.grouping = {e_dno_};
  ColId out = q_.columns().Add("sum", DataType::kDouble);
  gb.aggregates = {{AggKind::kSum, {sal_}, out}};
  // HAVING references the raw salary, which the group-by does not output.
  gb.having = {Cmp(Col(sal_), CompareOp::kGt, LitInt(0))};
  auto broken = std::make_shared<PlanNode>();
  broken->kind = PlanNode::Kind::kGroupBy;
  broken->left = scan;
  broken->group_by = gb;
  broken->output = RowLayout({e_dno_, out});
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

TEST_F(PlanValidatorTest, RejectsNegativeEstimates) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {eno_});
  auto broken = std::make_shared<PlanNode>(*scan);
  broken->est.rows = -1.0;
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

TEST_F(PlanValidatorTest, DanglingColumnErrorNamesColumnAndNode) {
  PlanBuilder b(q_);
  PlanPtr left = b.Scan(e_, {}, {eno_});
  PlanPtr right = b.Scan(d_, {}, {d_dno_});
  auto broken = std::make_shared<PlanNode>();
  broken->kind = PlanNode::Kind::kJoin;
  broken->algo = JoinAlgo::kBlockNestedLoop;
  broken->left = left;
  broken->right = right;
  // sal was projected away by the left scan: the reference dangles.
  broken->join_preds = {Cmp(Col(sal_), CompareOp::kGt, LitInt(0))};
  broken->output = RowLayout({eno_, d_dno_});
  Status st = ValidatePlan(broken, q_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("join predicate references unavailable column"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("e.sal"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("in node:"), std::string::npos) << st.message();
}

TEST_F(PlanValidatorTest, HashJoinWithoutEquiConjunctNamesJoinNode) {
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, sal_, d_dno_};
  PlanPtr left = b.Scan(e_, {}, needed);
  PlanPtr right = b.Scan(d_, {}, needed);
  auto broken = std::make_shared<PlanNode>();
  broken->kind = PlanNode::Kind::kJoin;
  broken->algo = JoinAlgo::kHash;
  broken->left = left;
  broken->right = right;
  // A range predicate only: nothing a hash table could be keyed on.
  broken->join_preds = {Cmp(Col(sal_), CompareOp::kGt, Col(d_dno_))};
  broken->output = RowLayout({eno_});
  Status st = ValidatePlan(broken, q_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hash join without equi-join conjunct"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("Join(hash)"), std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, NonMonotoneChildCostNamesNode) {
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, e_dno_, d_dno_};
  PlanPtr plan = b.Join(JoinAlgo::kHash, b.Scan(e_, {}, needed),
                        b.Scan(d_, {}, needed), {EqCols(e_dno_, d_dno_)},
                        needed);
  ASSERT_OK(ValidatePlan(plan, q_));
  // Corrupt: the join claims to cost less than its own inputs, which an
  // IO-based cost model can never produce.
  auto broken = std::make_shared<PlanNode>(*plan);
  broken->cost = plan->left->cost - 1.0;
  Status st = ValidatePlan(broken, q_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cost decreased at join"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("in node:"), std::string::npos) << st.message();
}

TEST_F(PlanValidatorTest, RejectsGroupByThatGrowsRows) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {e_dno_, sal_});
  GroupBySpec gb;
  gb.grouping = {e_dno_};
  PlanPtr grouped = b.GroupBy(scan, gb, {e_dno_});
  auto broken = std::make_shared<PlanNode>(*grouped);
  broken->est.rows = scan->est.rows * 2.0;
  EXPECT_FALSE(ValidatePlan(broken, q_).ok());
}

}  // namespace
}  // namespace aggview
