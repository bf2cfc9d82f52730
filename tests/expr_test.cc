#include <gtest/gtest.h>

#include "expr/aggregate.h"
#include "expr/predicate.h"
#include "expr/scalar_expr.h"

namespace aggview {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() {
    a_ = cat_.Add("a", DataType::kInt64);
    b_ = cat_.Add("b", DataType::kDouble);
    s_ = cat_.Add("s", DataType::kString);
    layout_ = RowLayout({a_, b_, s_});
    row_ = {Value::Int(10), Value::Real(2.5), Value::Str("hi")};
  }

  ColumnCatalog cat_;
  ColId a_, b_, s_;
  RowLayout layout_;
  Row row_;
};

TEST_F(ExprTest, ColumnRefEval) {
  EXPECT_EQ(Col(a_)->Eval(row_, layout_).AsInt(), 10);
  EXPECT_DOUBLE_EQ(Col(b_)->Eval(row_, layout_).AsDouble(), 2.5);
}

TEST_F(ExprTest, LiteralEval) {
  EXPECT_EQ(LitInt(5)->Eval(row_, layout_).AsInt(), 5);
  EXPECT_EQ(LitStr("x")->Eval(row_, layout_).AsString(), "x");
}

TEST_F(ExprTest, ArithInteger) {
  EXPECT_EQ(Arith(ArithOp::kAdd, Col(a_), LitInt(5))->Eval(row_, layout_).AsInt(), 15);
  EXPECT_EQ(Arith(ArithOp::kMul, Col(a_), LitInt(3))->Eval(row_, layout_).AsInt(), 30);
  EXPECT_EQ(Arith(ArithOp::kSub, Col(a_), LitInt(4))->Eval(row_, layout_).AsInt(), 6);
}

TEST_F(ExprTest, ArithDivisionPromotes) {
  Value v = Arith(ArithOp::kDiv, Col(a_), LitInt(4))->Eval(row_, layout_);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST_F(ExprTest, ArithMixedPromotes) {
  Value v = Arith(ArithOp::kAdd, Col(a_), Col(b_))->Eval(row_, layout_);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 12.5);
}

TEST_F(ExprTest, DivisionByZeroYieldsZero) {
  Value v = Arith(ArithOp::kDiv, Col(a_), LitInt(0))->Eval(row_, layout_);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 0.0);
}

TEST_F(ExprTest, ResultTypes) {
  EXPECT_EQ(Col(a_)->ResultType(cat_), DataType::kInt64);
  EXPECT_EQ(Arith(ArithOp::kAdd, Col(a_), LitInt(1))->ResultType(cat_),
            DataType::kInt64);
  EXPECT_EQ(Arith(ArithOp::kAdd, Col(a_), Col(b_))->ResultType(cat_),
            DataType::kDouble);
  EXPECT_EQ(Arith(ArithOp::kDiv, Col(a_), LitInt(2))->ResultType(cat_),
            DataType::kDouble);
}

TEST_F(ExprTest, CollectColumns) {
  std::set<ColId> cols;
  Arith(ArithOp::kAdd, Col(a_), Arith(ArithOp::kMul, Col(b_), LitInt(2)))
      ->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<ColId>{a_, b_}));
}

TEST_F(ExprTest, RemapColumns) {
  std::unordered_map<ColId, ColId> mapping = {{a_, b_}};
  ExprPtr remapped = Arith(ArithOp::kAdd, Col(a_), LitInt(1))->RemapColumns(mapping);
  std::set<ColId> cols;
  remapped->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<ColId>{b_}));
}

TEST_F(ExprTest, ToString) {
  EXPECT_EQ(Col(a_)->ToString(cat_), "a");
  EXPECT_EQ(Arith(ArithOp::kMul, Col(a_), LitInt(2))->ToString(cat_), "(a * 2)");
}

TEST_F(ExprTest, AsColumnRef) {
  EXPECT_EQ(Col(a_)->AsColumnRef(), a_);
  EXPECT_EQ(LitInt(3)->AsColumnRef(), kInvalidColId);
}

TEST_F(ExprTest, PredicateEval) {
  EXPECT_TRUE(Cmp(Col(a_), CompareOp::kGt, LitInt(5)).Eval(row_, layout_));
  EXPECT_FALSE(Cmp(Col(a_), CompareOp::kLt, LitInt(5)).Eval(row_, layout_));
  EXPECT_TRUE(Cmp(Col(s_), CompareOp::kEq, LitStr("hi")).Eval(row_, layout_));
  EXPECT_TRUE(Cmp(Col(a_), CompareOp::kNe, LitInt(11)).Eval(row_, layout_));
  EXPECT_TRUE(Cmp(Col(a_), CompareOp::kGe, LitInt(10)).Eval(row_, layout_));
  EXPECT_TRUE(Cmp(Col(a_), CompareOp::kLe, LitInt(10)).Eval(row_, layout_));
}

TEST_F(ExprTest, PredicateAnalysis) {
  Predicate eq = EqCols(a_, b_);
  ColId x, y;
  EXPECT_TRUE(eq.AsColumnEquality(&x, &y));
  EXPECT_EQ(x, a_);
  EXPECT_EQ(y, b_);

  Predicate lt = Cmp(Col(a_), CompareOp::kLt, LitInt(22));
  EXPECT_FALSE(lt.AsColumnEquality(&x, &y));
  ColId col;
  CompareOp op;
  Value v;
  ASSERT_TRUE(lt.AsColumnVsLiteral(&col, &op, &v));
  EXPECT_EQ(col, a_);
  EXPECT_EQ(op, CompareOp::kLt);
  EXPECT_EQ(v.AsInt(), 22);

  // Flipped orientation: 22 > a  ==  a < 22.
  Predicate flipped = Cmp(LitInt(22), CompareOp::kGt, Col(a_));
  ASSERT_TRUE(flipped.AsColumnVsLiteral(&col, &op, &v));
  EXPECT_EQ(col, a_);
  EXPECT_EQ(op, CompareOp::kLt);
}

TEST_F(ExprTest, PredicateBoundByAndReferences) {
  Predicate p = Cmp(Col(a_), CompareOp::kGt, Col(b_));
  EXPECT_TRUE(p.BoundBy({a_, b_}));
  EXPECT_FALSE(p.BoundBy({a_}));
  EXPECT_TRUE(p.References({b_}));
  EXPECT_FALSE(p.References({s_}));
}

TEST_F(ExprTest, EvalConjunctionShortCircuitSemantics) {
  std::vector<Predicate> preds = {Cmp(Col(a_), CompareOp::kGt, LitInt(5)),
                                  Cmp(Col(s_), CompareOp::kEq, LitStr("hi"))};
  EXPECT_TRUE(EvalConjunction(preds, row_, layout_));
  preds.push_back(Cmp(Col(a_), CompareOp::kLt, LitInt(0)));
  EXPECT_FALSE(EvalConjunction(preds, row_, layout_));
  EXPECT_TRUE(EvalConjunction({}, row_, layout_));
}

TEST_F(ExprTest, FlipCompareOp) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
}

TEST(AggregateTest, Decomposability) {
  EXPECT_TRUE(IsDecomposable(AggKind::kSum));
  EXPECT_TRUE(IsDecomposable(AggKind::kCount));
  EXPECT_TRUE(IsDecomposable(AggKind::kCountStar));
  EXPECT_TRUE(IsDecomposable(AggKind::kMin));
  EXPECT_TRUE(IsDecomposable(AggKind::kMax));
  EXPECT_TRUE(IsDecomposable(AggKind::kAvg));
  EXPECT_FALSE(IsDecomposable(AggKind::kMedian));
}

TEST(AggregateTest, DuplicateInsensitivity) {
  EXPECT_TRUE(IsDuplicateInsensitive(AggKind::kMin));
  EXPECT_TRUE(IsDuplicateInsensitive(AggKind::kMax));
  EXPECT_FALSE(IsDuplicateInsensitive(AggKind::kSum));
  EXPECT_FALSE(IsDuplicateInsensitive(AggKind::kCount));
  EXPECT_FALSE(IsDuplicateInsensitive(AggKind::kAvg));
  EXPECT_FALSE(IsDuplicateInsensitive(AggKind::kMedian));
}

TEST(AggregateTest, SumAccumulator) {
  AggAccumulator acc(AggKind::kSum);
  acc.Add1(Value::Int(1));
  acc.Add1(Value::Int(2));
  acc.Add1(Value::Int(3));
  EXPECT_EQ(acc.Finish().AsInt(), 6);
}

TEST(AggregateTest, SumPromotesOnMixedInput) {
  AggAccumulator acc(AggKind::kSum);
  acc.Add1(Value::Int(1));
  acc.Add1(Value::Real(2.5));
  Value v = acc.Finish();
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(AggregateTest, CountAndCountStar) {
  AggAccumulator c(AggKind::kCount);
  c.Add1(Value::Int(5));
  c.Add1(Value::Int(5));
  EXPECT_EQ(c.Finish().AsInt(), 2);
  AggAccumulator cs(AggKind::kCountStar);
  cs.Add0();
  EXPECT_EQ(cs.Finish().AsInt(), 1);
}

TEST(AggregateTest, MinMax) {
  AggAccumulator mn(AggKind::kMin), mx(AggKind::kMax);
  for (int v : {5, 2, 9, 3}) {
    mn.Add1(Value::Int(v));
    mx.Add1(Value::Int(v));
  }
  EXPECT_EQ(mn.Finish().AsInt(), 2);
  EXPECT_EQ(mx.Finish().AsInt(), 9);
}

TEST(AggregateTest, MinOnStrings) {
  AggAccumulator mn(AggKind::kMin);
  mn.Add1(Value::Str("pear"));
  mn.Add1(Value::Str("apple"));
  EXPECT_EQ(mn.Finish().AsString(), "apple");
}

TEST(AggregateTest, Avg) {
  AggAccumulator acc(AggKind::kAvg);
  acc.Add1(Value::Int(1));
  acc.Add1(Value::Int(2));
  EXPECT_DOUBLE_EQ(acc.Finish().AsDouble(), 1.5);
}

TEST(AggregateTest, MedianOddAndEven) {
  AggAccumulator odd(AggKind::kMedian);
  for (int v : {5, 1, 3}) odd.Add1(Value::Int(v));
  EXPECT_DOUBLE_EQ(odd.Finish().AsDouble(), 3.0);
  AggAccumulator even(AggKind::kMedian);
  for (int v : {4, 1, 3, 2}) even.Add1(Value::Int(v));
  EXPECT_DOUBLE_EQ(even.Finish().AsDouble(), 2.5);
}

TEST(AggregateTest, AvgFinalCombinesPartials) {
  AggAccumulator acc(AggKind::kAvgFinal);
  acc.Add2(Value::Real(10.0), Value::Int(4));  // sum=10 over 4 rows
  acc.Add2(Value::Real(2.0), Value::Int(2));   // sum=2 over 2 rows
  EXPECT_DOUBLE_EQ(acc.Finish().AsDouble(), 2.0);
}

TEST(AggregateTest, ResultTypes) {
  ColumnCatalog cat;
  ColId i = cat.Add("i", DataType::kInt64);
  ColId d = cat.Add("d", DataType::kDouble);
  EXPECT_EQ((AggregateCall{AggKind::kCount, {i}, 0}).ResultType(cat),
            DataType::kInt64);
  EXPECT_EQ((AggregateCall{AggKind::kSum, {i}, 0}).ResultType(cat),
            DataType::kInt64);
  EXPECT_EQ((AggregateCall{AggKind::kSum, {d}, 0}).ResultType(cat),
            DataType::kDouble);
  EXPECT_EQ((AggregateCall{AggKind::kAvg, {i}, 0}).ResultType(cat),
            DataType::kDouble);
  EXPECT_EQ((AggregateCall{AggKind::kMin, {i}, 0}).ResultType(cat),
            DataType::kInt64);
}

}  // namespace
}  // namespace aggview
