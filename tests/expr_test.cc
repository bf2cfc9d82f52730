#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/bound_expr.h"
#include "expr/predicate.h"
#include "expr/scalar_expr.h"
#include "test_util.h"

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
  auto eval = [&](const std::vector<Predicate>& preds) {
    auto bound = BoundConjunction::Bind(preds, layout_, cat_, "test");
    EXPECT_OK(bound);
    return bound.ok() && bound->Eval(row_);
  };
  std::vector<Predicate> preds = {Cmp(Col(a_), CompareOp::kGt, LitInt(5)),
                                  Cmp(Col(s_), CompareOp::kEq, LitStr("hi"))};
  EXPECT_TRUE(eval(preds));
  preds.push_back(Cmp(Col(a_), CompareOp::kLt, LitInt(0)));
  EXPECT_FALSE(eval(preds));
  EXPECT_TRUE(eval({}));
}

TEST_F(ExprTest, Int64OverflowComputesInDouble) {
  // INT64 + - * stays integral only while the result fits; an overflowing
  // result is computed in DOUBLE, like a mixed INT64/DOUBLE pair, instead
  // of wrapping (undefined behaviour in C++).
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  struct Case {
    ArithOp op;
    int64_t a, b;
    double want;
  };
  // Computed in double, each result rounds to a power of two.
  const double two63 = std::ldexp(1.0, 63);
  for (const Case& c : {Case{ArithOp::kAdd, max, 1, two63},
                        Case{ArithOp::kSub, min, 1, -two63},
                        Case{ArithOp::kMul, max, max, std::ldexp(1.0, 126)},
                        Case{ArithOp::kMul, min, -1, two63}}) {
    Row row = {Value::Int(c.a), Value::Real(0.0), Value::Str("")};
    ExprPtr e = Arith(c.op, Col(a_), LitInt(c.b));
    Value reference = e->Eval(row, layout_);
    ASSERT_TRUE(reference.is_double());
    EXPECT_EQ(reference.AsDouble(), c.want);
    auto bound = BoundExpr::Bind(*e, layout_);
    ASSERT_OK(bound);
    Value got = bound->Eval(row);
    ASSERT_TRUE(got.is_double());
    EXPECT_EQ(got.AsDouble(), c.want);
  }
  // In range, the result stays INT64.
  Value v = Arith(ArithOp::kMul, LitInt(max / 2), LitInt(2))->Eval(row_, layout_);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), max - 1);
}

TEST_F(ExprTest, FlipCompareOp) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
}

// ------------------------------------------------------------ bound form

/// Exact value equality, type included: Int(3) and Real(3.0) compare equal
/// under Value::Compare but fingerprint differently, so the bound form must
/// reproduce the reference evaluator's value *representation*, not just its
/// ordering.
void ExpectSameValue(const Value& want, const Value& got,
                     const std::string& what) {
  EXPECT_EQ(want.is_null(), got.is_null()) << what;
  EXPECT_EQ(want.is_int(), got.is_int()) << what;
  EXPECT_EQ(want.is_double(), got.is_double()) << what;
  EXPECT_EQ(want.is_string(), got.is_string()) << what;
  if (want.is_null() || got.is_null()) return;
  if (want.is_int() && got.is_int()) {
    EXPECT_EQ(want.AsInt(), got.AsInt()) << what;
  } else if (want.is_double() && got.is_double()) {
    EXPECT_EQ(want.AsDouble(), got.AsDouble()) << what;
  } else if (want.is_string() && got.is_string()) {
    EXPECT_EQ(want.AsString(), got.AsString()) << what;
  }
}

/// The bound form (expr/bound_expr.h) checked against the reference
/// evaluators ScalarExpr::Eval / Predicate::Eval. Two int columns, two
/// double columns, one string column: enough to drive every comparison
/// lane plus the generic fallback, with NULLs in every numeric column.
class BoundExprTest : public ::testing::Test {
 protected:
  BoundExprTest() {
    a_ = cat_.Add("t.a", DataType::kInt64);
    b_ = cat_.Add("t.b", DataType::kInt64);
    x_ = cat_.Add("t.x", DataType::kDouble);
    y_ = cat_.Add("t.y", DataType::kDouble);
    s_ = cat_.Add("t.s", DataType::kString);
    layout_ = RowLayout({a_, b_, x_, y_, s_});
    rows_ = {
        {Value::Int(7), Value::Int(3), Value::Real(2.5), Value::Real(-0.5),
         Value::Str("m")},
        {Value::Int(-4), Value::Int(0), Value::Real(0.0), Value::Real(1e9),
         Value::Str("")},
        {Value::Null(), Value::Int(5), Value::Real(3.25), Value::Null(),
         Value::Str("zz")},
        {Value::Int(9), Value::Null(), Value::Null(), Value::Real(4.0),
         Value::Str("a")},
        {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
         Value::Str("m")},
        // Runtime types off the static lanes: a DOUBLE in an INT64 column,
        // an INT64 in a DOUBLE column.
        {Value::Real(3.0), Value::Int(3), Value::Int(2), Value::Real(2.0),
         Value::Str("m")},
    };
  }

  void ExpectExprMatchesReference(const ExprPtr& e) {
    auto bound = BoundExpr::Bind(*e, layout_);
    ASSERT_OK(bound);
    for (const Row& row : rows_) {
      ExpectSameValue(e->Eval(row, layout_), bound->Eval(row),
                      e->ToString(cat_));
    }
  }

  void ExpectPredMatchesReference(const Predicate& p) {
    auto bound = BoundConjunction::Bind({p}, layout_, cat_, "test");
    ASSERT_OK(bound);
    for (const Row& row : rows_) {
      EXPECT_EQ(p.Eval(row, layout_), bound->Eval(row)) << p.ToString(cat_);
    }
  }

  ColumnCatalog cat_;
  RowLayout layout_;
  std::vector<Row> rows_;
  ColId a_ = kInvalidColId, b_ = kInvalidColId, x_ = kInvalidColId,
        y_ = kInvalidColId, s_ = kInvalidColId;
};

TEST_F(BoundExprTest, EveryArithOpMatchesReferenceOnEveryTypeMix) {
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    // INT64 pairs (rows include b == 0 for kDiv and NULL operands), DOUBLE
    // pairs (rows include x == 0.0), mixed pairs, literal operands, and
    // nested expressions.
    ExpectExprMatchesReference(Arith(op, Col(a_), Col(b_)));
    ExpectExprMatchesReference(Arith(op, Col(x_), Col(y_)));
    ExpectExprMatchesReference(Arith(op, Col(a_), Col(x_)));
    ExpectExprMatchesReference(Arith(op, Col(a_), LitInt(2)));
    ExpectExprMatchesReference(Arith(op, Col(a_), LitInt(0)));
    ExpectExprMatchesReference(Arith(op, Col(x_), LitReal(0.0)));
    ExpectExprMatchesReference(Arith(op, Col(y_), LitReal(2.5)));
    ExpectExprMatchesReference(Arith(op, LitInt(6), LitInt(4)));
    ExpectExprMatchesReference(
        Arith(op, Arith(ArithOp::kAdd, Col(a_), Col(b_)), Col(x_)));
    ExpectExprMatchesReference(
        Arith(op, Arith(ArithOp::kMul, Col(a_), LitInt(3)),
              Arith(ArithOp::kSub, Col(b_), LitInt(1))));
  }
}

TEST_F(BoundExprTest, DivisionIsAlwaysDoubleAndByZeroYieldsZero) {
  // The division contract: kDiv never stays INT64, and a zero divisor
  // yields Real(0.0), not an error or NaN.
  auto bound = BoundExpr::Bind(*Arith(ArithOp::kDiv, Col(a_), Col(b_)),
                               layout_);
  ASSERT_OK(bound);
  Value v = bound->Eval({Value::Int(7), Value::Int(2), Value::Null(),
                         Value::Null(), Value::Str("")});
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
  v = bound->Eval({Value::Int(7), Value::Int(0), Value::Null(), Value::Null(),
                   Value::Str("")});
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.AsDouble(), 0.0);
}

TEST_F(BoundExprTest, CoalesceMatchesReference) {
  ExpectExprMatchesReference(Coalesce(Col(a_), LitInt(42)));
  ExpectExprMatchesReference(Coalesce(Col(x_), Col(a_)));
  ExpectExprMatchesReference(Coalesce(Col(s_), LitStr("fallback")));
  // NULL-producing inner arithmetic takes the fallback; non-NULL skips it.
  ExpectExprMatchesReference(
      Coalesce(Arith(ArithOp::kAdd, Col(a_), Col(b_)), LitInt(-1)));
  // The fallback itself may evaluate to NULL.
  ExpectExprMatchesReference(Coalesce(Col(a_), Col(b_)));
  // Nested coalesce, and coalesce under arithmetic.
  ExpectExprMatchesReference(
      Coalesce(Col(a_), Coalesce(Col(b_), LitInt(0))));
  ExpectExprMatchesReference(
      Arith(ArithOp::kMul, Coalesce(Col(a_), LitInt(1)), Col(x_)));
}

TEST_F(BoundExprTest, BindFailsOnMissingColumn) {
  RowLayout narrow({a_});
  EXPECT_FALSE(BoundExpr::Bind(*Col(s_), narrow).ok());
  EXPECT_FALSE(
      BoundExpr::Bind(*Arith(ArithOp::kAdd, Col(a_), Col(b_)), narrow).ok());
  EXPECT_FALSE(
      BoundExpr::Bind(*Coalesce(Col(a_), Col(b_)), narrow).ok());
  auto preds = BoundConjunction::Bind(
      {Cmp(Col(a_), CompareOp::kLt, Col(b_))}, narrow, cat_, "filter");
  ASSERT_FALSE(preds.ok());
  // The malformed-plan error an operator's Open returns.
  EXPECT_EQ(preds.status().message(),
            "filter: predicate column missing from input layout");
}

TEST_F(BoundExprTest, EveryCompareOpMatchesReferenceAcrossTypes) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExpectPredMatchesReference(Cmp(Col(a_), op, Col(b_)));       // INT64
    ExpectPredMatchesReference(Cmp(Col(x_), op, Col(y_)));       // DOUBLE
    ExpectPredMatchesReference(Cmp(Col(a_), op, Col(x_)));       // mixed
    ExpectPredMatchesReference(Cmp(Col(s_), op, LitStr("m")));   // STRING
    ExpectPredMatchesReference(Cmp(Col(a_), op, Col(s_)));       // generic
    ExpectPredMatchesReference(Cmp(Col(a_), op, LitInt(3)));     // slot-lit
    ExpectPredMatchesReference(Cmp(Col(x_), op, LitInt(2)));     // dbl-int
    ExpectPredMatchesReference(Cmp(Col(x_), op, LitReal(2.5)));  // dbl-dbl
    ExpectPredMatchesReference(Cmp(Col(a_), op, LitReal(3.0)));  // int-dbl
    ExpectPredMatchesReference(Cmp(LitInt(3), op, Col(a_)));     // lit-slot
    ExpectPredMatchesReference(Cmp(Col(a_), op, Lit(Value::Null())));
    // Expression operands on either side.
    ExpectPredMatchesReference(
        Cmp(Arith(ArithOp::kMul, Col(a_), LitInt(2)), op, Col(b_)));
    ExpectPredMatchesReference(
        Cmp(Col(x_), op, Arith(ArithOp::kDiv, Col(y_), LitReal(2.0))));
    ExpectPredMatchesReference(
        Cmp(Coalesce(Col(a_), LitInt(0)), op, LitInt(0)));
  }
}

TEST_F(BoundExprTest, NullOperandsCompareFalseUnderEveryOp) {
  Row all_null = {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
                  Value::Str("m")};
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Predicate& p :
         {Cmp(Col(a_), op, Col(b_)), Cmp(Col(a_), op, LitInt(1)),
          Cmp(Col(x_), op, LitInt(1))}) {
      auto bound = BoundConjunction::Bind({p}, layout_, cat_, "test");
      ASSERT_OK(bound);
      // SQL three-valued logic folded to a filter: NULL never passes — not
      // even NULL <> NULL or NULL = NULL.
      EXPECT_FALSE(bound->Eval(all_null)) << p.ToString(cat_);
    }
  }
}

TEST_F(BoundExprTest, ConjunctionShortCircuitsAndMatchesReference) {
  std::vector<Predicate> preds = {
      Cmp(Col(a_), CompareOp::kGt, LitInt(0)),
      Cmp(Col(x_), CompareOp::kLt, Col(y_)),
      Cmp(Col(s_), CompareOp::kLe, LitStr("zz")),
  };
  auto bound = BoundConjunction::Bind(preds, layout_, cat_, "test");
  ASSERT_OK(bound);
  for (const Row& row : rows_) {
    bool want = true;
    for (const Predicate& p : preds) want = want && p.Eval(row, layout_);
    EXPECT_EQ(want, bound->Eval(row));
  }
  // The empty conjunction is vacuously true.
  auto empty = BoundConjunction::Bind({}, layout_, cat_, "test");
  ASSERT_OK(empty);
  EXPECT_TRUE(empty->Eval(rows_[0]));
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
