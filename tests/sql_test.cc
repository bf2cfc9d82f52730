#include <gtest/gtest.h>

#include <string>

#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace aggview {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("select e.sal, 42 3.5 'txt' <> <= >= < > = ( ) * ;");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kInteger);
  EXPECT_EQ((*tokens)[5].int_value, 42);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kReal);
  EXPECT_DOUBLE_EQ((*tokens)[6].real_value, 3.5);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[7].text, "txt");
  EXPECT_EQ((*tokens)[8].text, "<>");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, CaseInsensitiveIdentifiers) {
  auto tokens = Tokenize("SELECT Emp");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[1].text, "emp");
}

TEST(LexerTest, Comments) {
  auto tokens = Tokenize("select -- a comment\n x");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(LexerTest, NotEqualsAlias) {
  auto tokens = Tokenize("a != b");
  ASSERT_OK(tokens);
  EXPECT_EQ((*tokens)[1].text, "<>");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("select 'unterminated").ok());
  EXPECT_FALSE(Tokenize("select @").ok());
}

TEST(LexerTest, OutOfRangeNumericLiteralIsAParseError) {
  auto max = Tokenize("select 9223372036854775807");
  ASSERT_OK(max);
  EXPECT_EQ((*max)[1].int_value, 9223372036854775807);

  // One past INT64's range, and a real whose value overflows a double: a
  // ParseError naming the literal and its offset, never an exception.
  auto big = Tokenize("select 99999999999999999999 from emp e");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  EXPECT_NE(big.status().message().find("99999999999999999999"),
            std::string::npos)
      << big.status().ToString();
  EXPECT_NE(big.status().message().find("offset 7"), std::string::npos)
      << big.status().ToString();

  auto huge_real = Tokenize("select 1" + std::string(400, '0') + ".5");
  ASSERT_FALSE(huge_real.ok());
  EXPECT_EQ(huge_real.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, SimpleSelect) {
  auto ast = ParseSelect("select e.sal from emp e where e.age < 22");
  ASSERT_OK(ast);
  ASSERT_EQ(ast->items.size(), 1u);
  EXPECT_EQ(ast->items[0].expr->ToString(), "e.sal");
  ASSERT_EQ(ast->from.size(), 1u);
  EXPECT_EQ(ast->from[0].table, "emp");
  EXPECT_EQ(ast->from[0].alias, "e");
  ASSERT_EQ(ast->where.size(), 1u);
  EXPECT_EQ(ast->where[0].op, CompareOp::kLt);
}

TEST(ParserTest, DefaultAliasIsTableName) {
  auto ast = ParseSelect("select sal from emp");
  ASSERT_OK(ast);
  EXPECT_EQ(ast->from[0].alias, "emp");
}

TEST(ParserTest, GroupByHaving) {
  auto ast = ParseSelect(
      "select e.dno, avg(e.sal) from emp e group by e.dno having avg(e.sal) > "
      "100 and count(*) > 2");
  ASSERT_OK(ast);
  ASSERT_EQ(ast->group_by.size(), 1u);
  ASSERT_EQ(ast->having.size(), 2u);
  EXPECT_TRUE(ast->having[0].lhs->ContainsAggregate());
  EXPECT_EQ(ast->having[1].lhs->agg_kind, AggKind::kCountStar);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto ast = ParseSelect("select a from t where a < 1 + 2 * 3");
  ASSERT_OK(ast);
  EXPECT_EQ(ast->where[0].rhs->ToString(), "(1 + (2 * 3))");
}

TEST(ParserTest, Parentheses) {
  auto ast = ParseSelect("select a from t where a < (1 + 2) * 3");
  ASSERT_OK(ast);
  EXPECT_EQ(ast->where[0].rhs->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, AggregateKinds) {
  auto ast = ParseSelect(
      "select sum(a), min(a), max(a), count(a), count(*), median(a), avg(a) "
      "from t group by b");
  ASSERT_OK(ast);
  EXPECT_EQ(ast->items[0].expr->agg_kind, AggKind::kSum);
  EXPECT_EQ(ast->items[1].expr->agg_kind, AggKind::kMin);
  EXPECT_EQ(ast->items[2].expr->agg_kind, AggKind::kMax);
  EXPECT_EQ(ast->items[3].expr->agg_kind, AggKind::kCount);
  EXPECT_EQ(ast->items[4].expr->agg_kind, AggKind::kCountStar);
  EXPECT_EQ(ast->items[5].expr->agg_kind, AggKind::kMedian);
  EXPECT_EQ(ast->items[6].expr->agg_kind, AggKind::kAvg);
}

TEST(ParserTest, CreateViewScript) {
  auto script = ParseScript(
      "create view v (a, b) as select t.x, sum(t.y) from t group by t.x;\n"
      "select v.a from v where v.b > 10");
  ASSERT_OK(script);
  ASSERT_EQ(script->views.size(), 1u);
  EXPECT_EQ(script->views[0].name, "v");
  EXPECT_EQ(script->views[0].column_names,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, SelectItemAliases) {
  auto ast = ParseSelect("select e.sal as salary, e.dno dept from emp e");
  ASSERT_OK(ast);
  EXPECT_EQ(ast->items[0].alias, "salary");
  EXPECT_EQ(ast->items[1].alias, "dept");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("select from t").ok());
  EXPECT_FALSE(ParseSelect("select a").ok());
  EXPECT_FALSE(ParseSelect("select a from t where").ok());
  EXPECT_FALSE(ParseSelect("select a from t group a").ok());
  EXPECT_FALSE(ParseSelect("select a from t; garbage").ok());
  EXPECT_FALSE(ParseSelect("select a from t where a ==").ok());
}

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : fixture_(MakeEmpDept()) {}
  EmpDeptFixture fixture_;
};

TEST_F(BinderTest, BindsExample1) {
  auto q = ParseAndBind(*fixture_.catalog, Example1Sql());
  ASSERT_OK(q);
  ASSERT_EQ(q->views().size(), 1u);
  const AggView& view = q->views()[0];
  EXPECT_EQ(view.name, "b");
  EXPECT_EQ(view.spj.rels.size(), 1u);
  EXPECT_EQ(view.group_by.grouping.size(), 1u);
  ASSERT_EQ(view.group_by.aggregates.size(), 1u);
  EXPECT_EQ(view.group_by.aggregates[0].kind, AggKind::kAvg);
  EXPECT_EQ(q->base_rels().size(), 1u);
  EXPECT_EQ(q->predicates().size(), 3u);
  EXPECT_FALSE(q->top_group_by().has_value());
  EXPECT_EQ(q->select_list().size(), 1u);
}

TEST_F(BinderTest, BindsExample2WithTopGroupBy) {
  auto q = ParseAndBind(*fixture_.catalog, Example2Sql());
  ASSERT_OK(q);
  EXPECT_TRUE(q->views().empty());
  EXPECT_EQ(q->base_rels().size(), 2u);
  ASSERT_TRUE(q->top_group_by().has_value());
  EXPECT_EQ(q->top_group_by()->grouping.size(), 1u);
  EXPECT_EQ(q->top_group_by()->aggregates.size(), 1u);
  EXPECT_EQ(q->select_list().size(), 2u);
}

TEST_F(BinderTest, SharedAggregateBetweenSelectAndHaving) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "select e.dno, avg(e.sal) from emp e group by e.dno "
                        "having avg(e.sal) > 100");
  ASSERT_OK(q);
  // avg(e.sal) appears once, shared by SELECT and HAVING.
  EXPECT_EQ(q->top_group_by()->aggregates.size(), 1u);
  EXPECT_EQ(q->top_group_by()->having.size(), 1u);
}

TEST_F(BinderTest, ScalarAggregateWithoutGroupBy) {
  auto q = ParseAndBind(*fixture_.catalog, "select count(*) from emp e");
  ASSERT_OK(q);
  ASSERT_TRUE(q->top_group_by().has_value());
  EXPECT_TRUE(q->top_group_by()->grouping.empty());
}

TEST_F(BinderTest, UnqualifiedColumns) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "select budget from dept where dno = 3");
  ASSERT_OK(q);
  EXPECT_EQ(q->select_list().size(), 1u);
}

TEST_F(BinderTest, AmbiguousUnqualifiedColumn) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "select sal from emp e1, emp e2");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, DnoSharedByEmpAndDeptIsAmbiguous) {
  auto q = ParseAndBind(*fixture_.catalog, "select dno from emp e, dept d");
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, RejectsNonGroupingSelectItem) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "select e.sal, count(*) from emp e group by e.dno");
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, RejectsAggregateInWhere) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "select e.dno from emp e where avg(e.sal) > 10 group by e.dno");
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, RejectsViewWithoutGroupBy) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "create view v (s) as select e.sal from emp e;\n"
                        "select v.s from v");
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, RejectsDuplicateAliases) {
  EXPECT_FALSE(ParseAndBind(*fixture_.catalog,
                            "select e.sal from emp e, dept e").ok());
  EXPECT_FALSE(ParseAndBind(*fixture_.catalog,
                            "create view v (a) as select e.dno from emp e, "
                            "dept e group by e.dno;\nselect v.a from v")
                   .ok());
  // Same table twice with distinct aliases is fine.
  EXPECT_TRUE(
      ParseAndBind(*fixture_.catalog,
                   "select e1.sal from emp e1, emp e2 where e1.eno = e2.eno")
          .ok());
}

TEST_F(BinderTest, RejectsUnknownTable) {
  EXPECT_FALSE(ParseAndBind(*fixture_.catalog, "select x from nope").ok());
}

TEST_F(BinderTest, RejectsUnknownColumn) {
  EXPECT_FALSE(ParseAndBind(*fixture_.catalog, "select e.nope from emp e").ok());
}

TEST_F(BinderTest, ViewUsedTwiceGetsSeparateInstances) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "create view v (dno, asal) as select e.dno, avg(e.sal) "
                        "from emp e group by e.dno;\n"
                        "select a.asal from v a, v b "
                        "where a.dno = b.dno and a.asal > b.asal");
  ASSERT_OK(q);
  EXPECT_EQ(q->views().size(), 2u);
  EXPECT_EQ(q->num_range_vars(), 2);
}

TEST_F(BinderTest, ArithmeticOverViewOutput) {
  auto q = ParseAndBind(*fixture_.catalog,
                        "create view v (dno, asal) as select e.dno, avg(e.sal) "
                        "from emp e group by e.dno;\n"
                        "select e1.sal from emp e1, v "
                        "where e1.dno = v.dno and e1.sal > 0.5 * v.asal");
  ASSERT_OK(q);
  EXPECT_EQ(q->predicates().size(), 2u);
}

TEST_F(BinderTest, TpcdQueriesAllBind) {
  TpcdFixture tpcd = MakeTpcd(DbgenOptions{.scale_factor = 0.001});
  for (const auto& named : tpcd_queries::AllQueries()) {
    auto q = ParseAndBind(*tpcd.catalog, named.sql);
    EXPECT_TRUE(q.ok()) << named.name << ": " << q.status().ToString();
  }
}

}  // namespace
}  // namespace aggview
