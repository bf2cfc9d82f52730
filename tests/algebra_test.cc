#include <gtest/gtest.h>

#include "algebra/logical_plan.h"
#include "algebra/query.h"
#include "test_util.h"

namespace aggview {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : fixture_(MakeEmpDept()) {}

  EmpDeptFixture fixture_;
};

TEST_F(AlgebraTest, RangeVarAllocation) {
  Query q(fixture_.catalog.get());
  int e1 = q.AddRangeVar(fixture_.tables.emp, "e1");
  int e2 = q.AddRangeVar(fixture_.tables.emp, "e2");
  EXPECT_EQ(q.num_range_vars(), 2);
  // Self-join: the two occurrences have disjoint column ids.
  std::set<ColId> c1 = q.range_var(e1).ColumnSet();
  std::set<ColId> c2 = q.range_var(e2).ColumnSet();
  for (ColId c : c1) EXPECT_EQ(c2.count(c), 0u);
  EXPECT_EQ(q.columns().name(q.range_var(e1).columns[0]), "e1.eno");
}

TEST_F(AlgebraTest, ResolveColumn) {
  Query q(fixture_.catalog.get());
  q.AddRangeVar(fixture_.tables.emp, "e");
  auto sal = q.ResolveColumn("e", "sal");
  ASSERT_OK(sal);
  EXPECT_EQ(q.columns().name(*sal), "e.sal");
  EXPECT_FALSE(q.ResolveColumn("e", "nope").ok());
  EXPECT_FALSE(q.ResolveColumn("x", "sal").ok());
}

TEST_F(AlgebraTest, GroupBySpecOutputs) {
  Query q(fixture_.catalog.get());
  int e = q.AddRangeVar(fixture_.tables.emp, "e");
  ColId dno = q.range_var(e).columns[1];
  ColId sal = q.range_var(e).columns[2];
  ColId out = q.columns().Add("avg(e.sal)", DataType::kDouble);
  GroupBySpec gb;
  gb.grouping = {dno};
  gb.aggregates = {{AggKind::kAvg, {sal}, out}};
  EXPECT_EQ(gb.OutputColumns(), (std::vector<ColId>{dno, out}));
  EXPECT_EQ(gb.AggOutputSet(), (std::set<ColId>{out}));
  EXPECT_EQ(gb.AggArgSet(), (std::set<ColId>{sal}));
}

TEST_F(AlgebraTest, ValidateAcceptsExample1) {
  auto q = ParseAndBind(*fixture_.catalog, Example1Sql());
  ASSERT_OK(q);
  EXPECT_OK(q->Validate());
  EXPECT_EQ(q->views().size(), 1u);
  EXPECT_EQ(q->base_rels().size(), 1u);
  EXPECT_EQ(q->predicates().size(), 3u);
}

TEST_F(AlgebraTest, ValidateRejectsCrossBlockPredicate) {
  auto q = ParseAndBind(*fixture_.catalog, Example1Sql());
  ASSERT_OK(q);
  // Smuggle a top-level predicate over a column internal to the view (e2.sal
  // is not a view output).
  ColId inner_sal = q->range_var(q->views()[0].spj.rels[0]).columns[2];
  q->predicates().push_back(Cmp(Col(inner_sal), CompareOp::kGt, LitInt(0)));
  EXPECT_FALSE(q->Validate().ok());
}

TEST_F(AlgebraTest, ValidateRejectsDanglingRangeVar) {
  Query q(fixture_.catalog.get());
  int e = q.AddRangeVar(fixture_.tables.emp, "e");
  // Not placed in any block.
  q.select_list().push_back(q.range_var(e).columns[0]);
  EXPECT_FALSE(q.Validate().ok());
}

TEST_F(AlgebraTest, ToStringMentionsStructure) {
  auto q = ParseAndBind(*fixture_.catalog, Example1Sql());
  ASSERT_OK(q);
  std::string s = q->ToString();
  EXPECT_NE(s.find("view b"), std::string::npos);
  EXPECT_NE(s.find("group by"), std::string::npos);
  EXPECT_NE(s.find("emp e1"), std::string::npos);
}

TEST_F(AlgebraTest, EquiJoinPairsAndKeyCoverage) {
  Query q(fixture_.catalog.get());
  int e = q.AddRangeVar(fixture_.tables.emp, "e");
  int d = q.AddRangeVar(fixture_.tables.dept, "d");
  ColId e_dno = q.range_var(e).columns[1];
  ColId d_dno = q.range_var(d).columns[0];
  std::vector<Predicate> preds = {EqCols(e_dno, d_dno)};

  auto pairs = EquiJoinPairs(q, preds, {e}, d);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, e_dno);
  EXPECT_EQ(pairs[0].second, d_dno);
  // dept.dno (local column 0) is dept's primary key -> covered.
  EXPECT_TRUE(fixture_.catalog->table(fixture_.tables.dept).CoversKey({0}));

  // The reverse direction: e.dno (local column 1) is not a key of emp.
  auto rev = EquiJoinPairs(q, preds, {d}, e);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev[0].first, d_dno);
  EXPECT_EQ(rev[0].second, e_dno);
  EXPECT_FALSE(fixture_.catalog->table(fixture_.tables.emp).CoversKey({1}));
}

TEST(RowLayoutTest, Basics) {
  RowLayout layout({5, 9, 2});
  EXPECT_EQ(layout.size(), 3);
  EXPECT_EQ(layout.IndexOf(9), 1);
  EXPECT_EQ(layout.IndexOf(7), -1);
  EXPECT_TRUE(layout.Contains(2));
  ColumnCatalog cat;
  // allocate ids 0..5 with widths 8 each
  for (int i = 0; i < 10; ++i) {
    cat.Add(std::string("c").append(std::to_string(i)), DataType::kInt64);
  }
  EXPECT_EQ(layout.RowWidth(cat), 24);
}

}  // namespace
}  // namespace aggview
