#include <gtest/gtest.h>

#include "test_util.h"

namespace aggview {
namespace {

/// Tests of the outer-join extension (the paper's footnote 3: flattening
/// nested subqueries "may introduce outerjoins"; generalizations deferred to
/// [CS96]). NULL values, COALESCE, and left-outer hash / nested-loop joins.

TEST(NullValueTest, Basics) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(Value::Int(0).is_null());
  EXPECT_EQ(n.ToString(), "NULL");
  // Grouping convention: NULL == NULL, NULL sorts first.
  EXPECT_EQ(n.Compare(Value::Null()), 0);
  EXPECT_LT(n.Compare(Value::Int(-100)), 0);
  EXPECT_EQ(n.Hash(), Value::Null().Hash());
}

TEST(NullValueTest, PredicatesAreFalseOnNull) {
  ColumnCatalog cat;
  ColId c = cat.Add("c", DataType::kInt64);
  RowLayout layout({c});
  Row row = {Value::Null()};
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(Cmp(Col(c), op, LitInt(0)).Eval(row, layout));
    EXPECT_FALSE(Cmp(LitInt(0), op, Col(c)).Eval(row, layout));
  }
}

TEST(NullValueTest, ArithmeticPropagatesNull) {
  ColumnCatalog cat;
  ColId c = cat.Add("c", DataType::kInt64);
  RowLayout layout({c});
  Row row = {Value::Null()};
  EXPECT_TRUE(Arith(ArithOp::kAdd, Col(c), LitInt(1))->Eval(row, layout).is_null());
}

TEST(NullValueTest, CoalesceSubstitutes) {
  ColumnCatalog cat;
  ColId c = cat.Add("c", DataType::kInt64);
  RowLayout layout({c});
  EXPECT_EQ(Coalesce(Col(c), LitInt(0))->Eval({Value::Null()}, layout).AsInt(), 0);
  EXPECT_EQ(Coalesce(Col(c), LitInt(0))->Eval({Value::Int(7)}, layout).AsInt(), 7);
}

TEST(NullValueTest, AggregatesSkipNulls) {
  AggAccumulator sum(AggKind::kSum);
  sum.Add1(Value::Int(5));
  sum.Add1(Value::Null());
  sum.Add1(Value::Int(3));
  EXPECT_EQ(sum.Finish().AsInt(), 8);

  AggAccumulator cnt(AggKind::kCount);
  cnt.Add1(Value::Int(1));
  cnt.Add1(Value::Null());
  EXPECT_EQ(cnt.Finish().AsInt(), 1);

  AggAccumulator star(AggKind::kCountStar);
  star.Add0();
  star.Add0();
  EXPECT_EQ(star.Finish().AsInt(), 2);
}

/// Fixture: dept (3 rows) and emp where dept 3 has NO employees — the
/// empty-group case behind the COUNT bug.
class OuterJoinTest : public ::testing::Test {
 protected:
  OuterJoinTest() {
    auto tables = CreateEmpDeptSchema(&catalog_);
    EXPECT_OK(tables);
    tables_ = *tables;
    auto dept = std::make_shared<Table>(catalog_.table(tables_.dept).schema);
    for (int64_t d = 1; d <= 3; ++d) {
      dept->AppendUnchecked({Value::Int(d), Value::Real(d * 100000.0)});
    }
    catalog_.mutable_table(tables_.dept).stats = ComputeStats(*dept);
    catalog_.mutable_table(tables_.dept).data = dept;

    auto emp = std::make_shared<Table>(catalog_.table(tables_.emp).schema);
    auto add = [&](int64_t eno, int64_t dno) {
      emp->AppendUnchecked(
          {Value::Int(eno), Value::Int(dno), Value::Real(100), Value::Int(30)});
    };
    add(1, 1);
    add(2, 1);
    add(3, 2);  // dept 3: no employees
    catalog_.mutable_table(tables_.emp).stats = ComputeStats(*emp);
    catalog_.mutable_table(tables_.emp).data = emp;
  }

  Catalog catalog_;
  EmpDeptTables tables_;
};

TEST_F(OuterJoinTest, LeftOuterJoinPadsUnmatchedRows) {
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
  PlanPtr loj = b.LeftOuterJoin(b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                                {EqCols(d_dno, e_dno)}, needed);
  auto result = ExecutePlan(b.Project(loj, q.select_list()), q);
  ASSERT_OK(result);
  // 2 matches for dept 1, 1 for dept 2, 1 padded row for dept 3.
  ASSERT_EQ(result->rows.size(), 4u);
  int padded = 0;
  for (const Row& row : result->rows) {
    if (row[1].is_null()) {
      ++padded;
      EXPECT_EQ(row[0].AsInt(), 3);
    }
  }
  EXPECT_EQ(padded, 1);
}

TEST_F(OuterJoinTest, NestedLoopOuterMatchesHashOuter) {
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

  PlanPtr hash = b.LeftOuterJoin(b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                                 {EqCols(d_dno, e_dno)}, needed);
  // Force the nested-loop shape by marking a BNL join as outer.
  PlanPtr bnl_inner = b.Join(JoinAlgo::kBlockNestedLoop, b.Scan(d, {}, needed),
                             b.Scan(e, {}, needed), {EqCols(d_dno, e_dno)},
                             needed);
  auto bnl = std::make_shared<PlanNode>(*bnl_inner);
  bnl->left_outer = true;

  auto r1 = ExecutePlan(b.Project(hash, q.select_list()), q);
  auto r2 = ExecutePlan(b.Project(bnl, q.select_list()), q);
  ASSERT_OK(r1);
  ASSERT_OK(r2);
  EXPECT_EQ(r1->Fingerprint(), r2->Fingerprint());
}

TEST_F(OuterJoinTest, CountBugFlattening) {
  // Correlated query: departments with fewer than 2 employees —
  //   SELECT d.dno FROM dept d
  //   WHERE (SELECT COUNT(*) FROM emp e WHERE e.dno = d.dno) < 2
  // Naive inner-join flattening loses dept 3 (its group is empty and COUNT
  // never produces 0) — the COUNT bug. The correct flattening is a LEFT
  // OUTER join against the count view with COALESCE(cnt, 0).
  Query q(&catalog_);
  int d = q.AddRangeVar(tables_.dept, "d");
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId cnt = q.columns().Add("count(*)", DataType::kInt64);
  q.select_list() = {d_dno};

  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, cnt};
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kCountStar, {}, cnt}};
  PlanPtr view = b.GroupBy(b.Scan(e, {}, needed), gb, needed);

  // Incorrect inner-join flattening: dept 3 silently disappears.
  PlanPtr wrong = b.Filter(
      b.Join(JoinAlgo::kHash, b.Scan(d, {}, needed), view,
             {EqCols(d_dno, e_dno)}, needed),
      {Cmp(Col(cnt), CompareOp::kLt, LitInt(2))});
  auto wrong_result = ExecutePlan(b.Project(wrong, q.select_list()), q);
  ASSERT_OK(wrong_result);
  EXPECT_EQ(wrong_result->rows.size(), 1u);  // only dept 2 — dept 3 lost!

  // Correct flattening: LOJ + COALESCE.
  PlanPtr right = b.Filter(
      b.LeftOuterJoin(b.Scan(d, {}, needed), view, {EqCols(d_dno, e_dno)},
                      needed),
      {Cmp(Coalesce(Col(cnt), LitInt(0)), CompareOp::kLt, LitInt(2))});
  auto result = ExecutePlan(b.Project(right, q.select_list()), q);
  ASSERT_OK(result);
  std::set<int64_t> dnos;
  for (const Row& row : result->rows) dnos.insert(row[0].AsInt());
  EXPECT_EQ(dnos, (std::set<int64_t>{2, 3}));  // dept 3 recovered
}

TEST_F(OuterJoinTest, GroupByTreatsNullsAsOneGroup) {
  // Group the LOJ output by the (possibly NULL) employee dno.
  Query q(&catalog_);
  int d = q.AddRangeVar(tables_.dept, "d");
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId cnt = q.columns().Add("count(*)", DataType::kInt64);
  q.select_list() = {e_dno, cnt};
  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, cnt};
  PlanPtr loj = b.LeftOuterJoin(b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                                {EqCols(d_dno, e_dno)}, needed);
  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kCountStar, {}, cnt}};
  PlanPtr plan = b.GroupBy(loj, gb, needed);
  auto result = ExecutePlan(b.Project(plan, q.select_list()), q);
  ASSERT_OK(result);
  // Groups: dno 1 (2 rows), dno 2 (1 row), NULL (1 padded row).
  ASSERT_EQ(result->rows.size(), 3u);
  bool has_null_group = false;
  for (const Row& row : result->rows) {
    if (row[0].is_null()) {
      has_null_group = true;
      EXPECT_EQ(row[1].AsInt(), 1);
    }
  }
  EXPECT_TRUE(has_null_group);
}

}  // namespace
}  // namespace aggview
