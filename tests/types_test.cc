#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "types/data_type.h"
#include "types/schema.h"
#include "types/value.h"

// Net count of live operator-new allocations in this test binary, so the
// ownership tests can see a string cell's block freed by its last copy.
namespace {
std::atomic<int64_t> g_live_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace aggview {
namespace {

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "INT64");
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "DOUBLE");
  EXPECT_STREQ(DataTypeName(DataType::kString), "STRING");
}

TEST(DataTypeTest, Widths) {
  EXPECT_EQ(DataTypeWidth(DataType::kInt64), 8);
  EXPECT_EQ(DataTypeWidth(DataType::kDouble), 8);
  EXPECT_EQ(DataTypeWidth(DataType::kString), 24);
}

TEST(DataTypeTest, Numeric) {
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_FALSE(IsNumeric(DataType::kString));
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Real(3.5).is_double());
  EXPECT_TRUE(Value::Str("x").is_string());
  EXPECT_EQ(Value::Int(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
}

TEST(ValueTest, NumericPromotionInComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Real(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Real(3.5)), 0);
  EXPECT_GT(Value::Real(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, IntComparisonExactAtLargeMagnitudes) {
  // Same-type int comparison must not go through double.
  int64_t big = (int64_t{1} << 62) + 1;
  EXPECT_GT(Value::Int(big).Compare(Value::Int(big - 1)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_EQ(Value::Str("abc"), Value::Str("abc"));
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_FALSE(Value::Int(2) < Value::Int(2));
}

TEST(ValueTest, HashConsistentWithEquality) {
  // 3 (int) == 3.0 (double), so their hashes must match.
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
  EXPECT_EQ(Value::Str("q").Hash(), Value::Str("q").Hash());
}

TEST(ValueTest, AsNumericPoisonsInsteadOfCrashing) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).AsNumeric(), 3.5);
  EXPECT_TRUE(std::isnan(Value::Str("x").AsNumeric()));
  EXPECT_TRUE(std::isnan(Value::Null().AsNumeric()));
}

TEST(ValueTest, CheckedNumericReportsNonNumeric) {
  auto ok = Value::Int(7).CheckedNumeric();
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(*ok, 7.0);
  auto bad = Value::Str("x").CheckedNumeric();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("no numeric view"), std::string::npos);
  EXPECT_FALSE(Value::Null().CheckedNumeric().ok());
}

TEST(ValueTest, MixedTypeCompareIsDeterministicTotalOrder) {
  // String vs numeric is a caller bug, but the fallback order must stay
  // total and antisymmetric so sorting/grouping cannot corrupt memory.
  EXPECT_GT(Value::Str("x").Compare(Value::Int(3)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Str("x")), 0);
  EXPECT_LT(Value::Real(1e18).Compare(Value::Str("")), 0);
}

TEST(ValueTest, CheckedCompareReportsMixedTypes) {
  auto ok = Value::Int(2).CheckedCompare(Value::Real(3.0));
  ASSERT_TRUE(ok.ok());
  EXPECT_LT(*ok, 0);
  auto bad = Value::Str("x").CheckedCompare(Value::Int(1));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("string vs numeric"),
            std::string::npos);
  // NULL keeps its total-order position without an error.
  EXPECT_TRUE(Value::Null().CheckedCompare(Value::Str("x")).ok());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Real(1.5).ToString(), "1.5");
}

// Longer than any std::string's inline buffer, so the text is on the heap.
const char kLongText[] = "a string cell too long for any inline buffer";

std::vector<Value> EveryKind() {
  return {Value::Int(7), Value::Real(-2.5), Value::Str(kLongText),
          Value::Str(""), Value::Null()};
}

TEST(ValueOwnershipTest, CopiesAndAssignmentsOfEveryKind) {
  for (const Value& original : EveryKind()) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);
    EXPECT_EQ(copy.type(), original.type());
    EXPECT_EQ(copy.is_null(), original.is_null());
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.Hash(), original.Hash());
    for (const Value& other : EveryKind()) {
      Value target(other);
      target = original;
      EXPECT_EQ(target.is_null(), original.is_null());
      EXPECT_EQ(target, original);
      EXPECT_EQ(target.ToString(), original.ToString());
    }
    const Value& same = copy;
    copy = same;
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.ToString(), original.ToString());
  }
}

TEST(ValueOwnershipTest, MovesOfEveryKind) {
  for (const Value& original : EveryKind()) {
    SCOPED_TRACE(original.ToString());
    Value from(original);
    Value moved(std::move(from));
    EXPECT_EQ(moved.ToString(), original.ToString());
    EXPECT_EQ(moved.Hash(), original.Hash());
    for (const Value& other : EveryKind()) {
      Value source(original);
      Value target(other);
      target = std::move(source);
      EXPECT_EQ(target.ToString(), original.ToString());
      EXPECT_EQ(target.is_null(), original.is_null());
    }
    Value& same = moved;
    moved = std::move(same);
    EXPECT_EQ(moved.ToString(), original.ToString());
  }
}

TEST(ValueOwnershipTest, MovedFromIsIntZero) {
  for (const Value& original : EveryKind()) {
    SCOPED_TRACE(original.ToString());
    Value from(original);
    Value to(std::move(from));
    EXPECT_TRUE(from.is_int());
    EXPECT_EQ(from.AsInt(), 0);
    EXPECT_EQ(from, Value::Int(0));
    EXPECT_EQ(from.Compare(Value::Real(0.0)), 0);
    EXPECT_EQ(from.Hash(), Value::Int(0).Hash());
    Value assigned_from(original);
    Value assigned_to;
    assigned_to = std::move(assigned_from);
    EXPECT_EQ(assigned_from, Value::Int(0));
    assigned_from = original;  // a moved-from value takes a new value
    EXPECT_EQ(assigned_from.ToString(), original.ToString());
  }
}

TEST(ValueOwnershipTest, StringHashIsTheTextsHash) {
  for (const std::string text : {"", "q", kLongText}) {
    EXPECT_EQ(Value::Str(text).Hash(), std::hash<std::string>{}(text));
  }
}

TEST(ValueOwnershipTest, NegativeZeroEqualsAndHashesLikeZero) {
  EXPECT_EQ(Value::Real(-0.0), Value::Int(0));
  EXPECT_EQ(Value::Real(-0.0).Hash(), Value::Int(0).Hash());
  EXPECT_EQ(Value::Real(-0.0).Hash(), Value::Real(0.0).Hash());
  EXPECT_LT(Value::Null().Compare(Value::Int(INT64_MIN)), 0);
  EXPECT_EQ(Value::Null().type(), DataType::kString);
}

TEST(ValueOwnershipTest, CopyOutlivesItsSourceAndLastCopyFrees) {
  const int64_t before = g_live_allocs.load();
  {
    Value survivor;
    {
      Value source = Value::Str(kLongText);
      survivor = source;
      EXPECT_EQ(&survivor.AsString(), &source.AsString());  // one shared text
    }
    EXPECT_EQ(survivor.AsString(), kLongText);
    EXPECT_GT(g_live_allocs.load(), before);
  }
  EXPECT_EQ(g_live_allocs.load(), before);
}

// Eight threads copy and destroy copies of one shared string cell at once;
// the race detector checks the reference count, and the allocation count
// checks that the last copy freed the block.
TEST(ValueOwnershipTest, ConcurrentCopiesOfOneStringCell) {
  constexpr int kThreads = 8;
  constexpr int kCopies = 100000;
  const int64_t before = g_live_allocs.load();
  {
    std::atomic<int> mismatches{0};
    {
      const Value cell = Value::Str(kLongText);
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cell, &mismatches] {
          Value held;
          for (int i = 0; i < kCopies; ++i) {
            Value copy(cell);
            if (copy.AsString() != kLongText) mismatches.fetch_add(1);
            if (i % 2 == 0) held = copy;  // outlives `copy`
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(cell.AsString(), kLongText);
    }
    EXPECT_EQ(mismatches.load(), 0);
  }
  EXPECT_EQ(g_live_allocs.load(), before);
}

TEST(RowTest, HashAndEquality) {
  Row a = {Value::Int(1), Value::Str("x")};
  Row b = {Value::Int(1), Value::Str("x")};
  Row c = {Value::Int(2), Value::Str("x")};
  EXPECT_EQ(HashRow(a), HashRow(b));
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_FALSE(RowEq{}(a, c));
  EXPECT_FALSE(RowEq{}(a, Row{Value::Int(1)}));
}

TEST(SchemaTest, FindColumn) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.FindColumn("a"), 0);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("c"), -1);
}

TEST(SchemaTest, RowWidth) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.RowWidth(), 8 + 24);
}

TEST(SchemaTest, CustomWidth) {
  Schema s({ColumnSpec("name", DataType::kString, 64)});
  EXPECT_EQ(s.RowWidth(), 64);
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.ToString(), "a:INT64");
}

}  // namespace
}  // namespace aggview
