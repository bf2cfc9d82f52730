#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace aggview {
namespace {

/// SQL NULL-semantics tests for the executor: join keys that are NULL never
/// match (NULL = NULL is not true), every join algorithm agrees on that, and
/// a scalar aggregate over zero rows produces exactly one row with COUNT = 0
/// and SUM/MIN/MAX/AVG = NULL.

/// emp/dept where both sides of the join key contain NULLs:
///   dept.dno: 1, 2, NULL
///   emp.dno:  1, 1, 2, NULL, NULL
/// An inner join on dno has exactly 3 matches; the NULL-keyed rows on either
/// side must pair with nothing (in particular not with each other).
class NullKeysTest : public ::testing::Test {
 protected:
  NullKeysTest() {
    auto tables = CreateEmpDeptSchema(&catalog_);
    EXPECT_OK(tables);
    tables_ = *tables;

    auto dept = std::make_shared<Table>(catalog_.table(tables_.dept).schema);
    dept->AppendUnchecked({Value::Int(1), Value::Real(100000.0)});
    dept->AppendUnchecked({Value::Int(2), Value::Real(200000.0)});
    dept->AppendUnchecked({Value::Null(), Value::Real(300000.0)});
    catalog_.mutable_table(tables_.dept).stats = ComputeStats(*dept);
    catalog_.mutable_table(tables_.dept).data = dept;

    auto emp = std::make_shared<Table>(catalog_.table(tables_.emp).schema);
    auto add = [&](int64_t eno, Value dno, double sal) {
      emp->AppendUnchecked(
          {Value::Int(eno), std::move(dno), Value::Real(sal), Value::Int(30)});
    };
    add(1, Value::Int(1), 100);
    add(2, Value::Int(1), 200);
    add(3, Value::Int(2), 300);
    add(4, Value::Null(), 400);
    add(5, Value::Null(), 500);
    catalog_.mutable_table(tables_.emp).stats = ComputeStats(*emp);
    catalog_.mutable_table(tables_.emp).data = emp;
  }

  Catalog catalog_;
  EmpDeptTables tables_;
};

TEST_F(NullKeysTest, AllJoinAlgorithmsSkipNullKeysIdentically) {
  Query q(&catalog_);
  int d = q.AddRangeVar(tables_.dept, "d");
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  q.select_list() = {d_dno, eno};

  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, eno};

  std::string reference;
  for (JoinAlgo algo :
       {JoinAlgo::kHash, JoinAlgo::kBlockNestedLoop}) {
    PlanPtr join = b.Join(algo, b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                          {EqCols(d_dno, e_dno)}, needed);
    auto result = ExecutePlan(b.Project(join, q.select_list()), q);
    ASSERT_OK(result);
    // dept 1 x emp {1,2}, dept 2 x emp {3}; NULL keys pair with nothing.
    EXPECT_EQ(result->rows.size(), 3u) << JoinAlgoName(algo);
    for (const Row& row : result->rows) {
      EXPECT_FALSE(row[0].is_null()) << JoinAlgoName(algo);
    }
    if (reference.empty()) {
      reference = result->Fingerprint();
    } else {
      EXPECT_EQ(result->Fingerprint(), reference) << JoinAlgoName(algo);
    }
  }
}

TEST_F(NullKeysTest, NestedLoopFallbackAgreesWithIndexedPath) {
  // Force the nested-loop join down its predicate-eval path (no equi-join
  // conjunct to index on: the equality is phrased arithmetically) and check
  // it against the hash join's answer on the same data.
  Query q(&catalog_);
  int d = q.AddRangeVar(tables_.dept, "d");
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  q.select_list() = {d_dno, eno};
  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, eno};

  PlanPtr hash = b.Join(JoinAlgo::kHash, b.Scan(d, {}, needed),
                        b.Scan(e, {}, needed), {EqCols(d_dno, e_dno)}, needed);
  Predicate arith_eq =
      Cmp(Arith(ArithOp::kAdd, Col(d_dno), LitInt(0)), CompareOp::kEq,
          Col(e_dno));
  PlanPtr bnl = b.Join(JoinAlgo::kBlockNestedLoop, b.Scan(d, {}, needed),
                       b.Scan(e, {}, needed), {arith_eq}, needed);
  auto r1 = ExecutePlan(b.Project(hash, q.select_list()), q);
  auto r2 = ExecutePlan(b.Project(bnl, q.select_list()), q);
  ASSERT_OK(r1);
  ASSERT_OK(r2);
  EXPECT_EQ(r1->rows.size(), 3u);
  EXPECT_EQ(r1->Fingerprint(), r2->Fingerprint());
}

TEST_F(NullKeysTest, OuterJoinStillPadsNullKeyedLeftRows) {
  // A NULL-keyed *probe* row never matches, but in outer mode it must still
  // survive as a padded row — skipping NULL keys must not drop it.
  Query q(&catalog_);
  int e = q.AddRangeVar(tables_.emp, "e");
  int d = q.AddRangeVar(tables_.dept, "d");
  q.base_rels() = {e, d};
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  ColId d_dno = q.range_var(d).columns[0];
  ColId budget = q.range_var(d).columns[1];
  q.select_list() = {eno, budget};
  PlanBuilder b(q);
  std::set<ColId> needed = {e_dno, eno, d_dno, budget};

  PlanPtr loj = b.LeftOuterJoin(b.Scan(e, {}, needed), b.Scan(d, {}, needed),
                                {EqCols(e_dno, d_dno)}, needed);
  auto result = ExecutePlan(b.Project(loj, q.select_list()), q);
  ASSERT_OK(result);
  // All 5 employees survive: 3 matched, 2 NULL-dno rows padded.
  ASSERT_EQ(result->rows.size(), 5u);
  std::set<int64_t> padded;
  for (const Row& row : result->rows) {
    if (row[1].is_null()) padded.insert(row[0].AsInt());
  }
  EXPECT_EQ(padded, (std::set<int64_t>{4, 5}));
}

TEST_F(NullKeysTest, OptimizersAgreeOnNullKeyedData) {
  // Equivalence property on NULL-containing data: the traditional and the
  // aggregate-view optimizer may pick different plans (different join
  // algorithms, pull-up/push-down rewrites); NULL semantics must not depend
  // on that choice.
  CheckOptimizersAgree(catalog_,
                       "select e.dno, count(*), avg(e.sal) "
                       "from emp e, dept d where e.dno = d.dno "
                       "group by e.dno");
  CheckOptimizersAgree(catalog_, Example1Sql());
}

TEST_F(NullKeysTest, ScalarAggregateOverEmptyInputYieldsOneRow) {
  Query q(&catalog_);
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {e};
  ColId sal = q.range_var(e).columns[2];
  ColId c_star = q.columns().Add("count(*)", DataType::kInt64);
  ColId c_sal = q.columns().Add("count(sal)", DataType::kInt64);
  ColId s_sal = q.columns().Add("sum(sal)", DataType::kDouble);
  ColId mn = q.columns().Add("min(sal)", DataType::kDouble);
  ColId mx = q.columns().Add("max(sal)", DataType::kDouble);
  ColId av = q.columns().Add("avg(sal)", DataType::kDouble);
  q.select_list() = {c_star, c_sal, s_sal, mn, mx, av};

  PlanBuilder b(q);
  std::set<ColId> needed = {sal, c_star, c_sal, s_sal, mn, mx, av};
  // sal < 0 matches nothing: the aggregate's input is empty.
  GroupBySpec gb;
  gb.aggregates = {{AggKind::kCountStar, {}, c_star},
                   {AggKind::kCount, {sal}, c_sal},
                   {AggKind::kSum, {sal}, s_sal},
                   {AggKind::kMin, {sal}, mn},
                   {AggKind::kMax, {sal}, mx},
                   {AggKind::kAvg, {sal}, av}};
  PlanPtr plan = b.GroupBy(
      b.Scan(e, {Cmp(Col(sal), CompareOp::kLt, LitInt(0))}, needed), gb,
      needed);
  auto result = ExecutePlan(b.Project(plan, q.select_list()), q);
  ASSERT_OK(result);
  ASSERT_EQ(result->rows.size(), 1u);
  const Row& row = result->rows[0];
  EXPECT_EQ(row[0].AsInt(), 0);       // COUNT(*)
  EXPECT_EQ(row[1].AsInt(), 0);       // COUNT(sal)
  EXPECT_TRUE(row[2].is_null());      // SUM
  EXPECT_TRUE(row[3].is_null());      // MIN
  EXPECT_TRUE(row[4].is_null());      // MAX
  EXPECT_TRUE(row[5].is_null());      // AVG
}

TEST_F(NullKeysTest, ScalarAggregateOverEmptyInputEndToEnd) {
  // Same property through the full SQL stack and the optimizer.
  auto query = ParseAndBind(
      catalog_, "select count(*), sum(e.sal) from emp e where e.sal < 0");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  auto result = ExecutePlan(optimized->plan, optimized->query);
  ASSERT_OK(result);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST_F(NullKeysTest, GroupedAggregateOverEmptyInputStaysEmpty) {
  // The one-row rule is for *scalar* aggregates only; with grouping columns
  // an empty input produces no groups at all.
  auto query = ParseAndBind(
      catalog_,
      "select e.dno, count(*) from emp e where e.sal < 0 group by e.dno");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  auto result = ExecutePlan(optimized->plan, optimized->query);
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 0u);
}

}  // namespace
}  // namespace aggview
