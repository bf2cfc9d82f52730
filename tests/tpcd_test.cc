#include <gtest/gtest.h>

#include "test_util.h"

namespace aggview {
namespace {

class TpcdTest : public ::testing::Test {
 protected:
  TpcdTest() : fixture_(MakeTpcd(DbgenOptions{.scale_factor = 0.005})) {}
  TpcdFixture fixture_;
};

TEST_F(TpcdTest, SchemaHasAllTables) {
  EXPECT_EQ(fixture_.catalog->num_tables(), 8);
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    EXPECT_OK(fixture_.catalog->FindTable(name));
  }
}

TEST_F(TpcdTest, CardinalitiesScale) {
  DbgenOptions o{.scale_factor = 0.005};
  const Catalog& cat = *fixture_.catalog;
  EXPECT_EQ(cat.table(fixture_.tables.supplier).stats.row_count, o.suppliers());
  EXPECT_EQ(cat.table(fixture_.tables.customer).stats.row_count, o.customers());
  EXPECT_EQ(cat.table(fixture_.tables.orders).stats.row_count, o.orders());
  // Lineitems average ~4 per order.
  int64_t lines = cat.table(fixture_.tables.lineitem).stats.row_count;
  EXPECT_GT(lines, o.orders() * 2);
  EXPECT_LT(lines, o.orders() * 8);
}

TEST_F(TpcdTest, GenerationIsDeterministic) {
  TpcdFixture again = MakeTpcd(DbgenOptions{.scale_factor = 0.005});
  const Table& a = *fixture_.catalog->table(fixture_.tables.lineitem).data;
  const Table& b = *again.catalog->table(again.tables.lineitem).data;
  ASSERT_EQ(a.row_count(), b.row_count());
  for (int64_t i = 0; i < std::min<int64_t>(a.row_count(), 100); ++i) {
    EXPECT_TRUE(RowEq{}(a.row(i), b.row(i))) << "row " << i;
  }
}

TEST_F(TpcdTest, ForeignKeysAreValid) {
  // Every lineitem points at an existing order and part.
  const Catalog& cat = *fixture_.catalog;
  int64_t orders = cat.table(fixture_.tables.orders).stats.row_count;
  int64_t parts = cat.table(fixture_.tables.part).stats.row_count;
  const Table& lineitem = *cat.table(fixture_.tables.lineitem).data;
  for (int64_t r = 0; r < lineitem.row_count(); ++r) {
    const Row row = lineitem.row(r);
    EXPECT_GE(row[0].AsInt(), 1);
    EXPECT_LE(row[0].AsInt(), orders);
    EXPECT_GE(row[2].AsInt(), 1);
    EXPECT_LE(row[2].AsInt(), parts);
  }
}

TEST_F(TpcdTest, SkewedGenerationConcentratesKeys) {
  TpcdFixture skewed =
      MakeTpcd(DbgenOptions{.scale_factor = 0.005, .seed = 42, .skew = 1.2});
  // Under skew, the most popular part appears far more often than average.
  const Table& lineitem = *skewed.catalog->table(skewed.tables.lineitem).data;
  std::unordered_map<int64_t, int64_t> counts;
  for (const Value& v : lineitem.column(2)) counts[v.AsInt()]++;
  int64_t max_count = 0;
  for (auto& [k, v] : counts) max_count = std::max(max_count, v);
  double avg = static_cast<double>(lineitem.row_count()) /
               static_cast<double>(counts.size());
  EXPECT_GT(static_cast<double>(max_count), 5.0 * avg);
}

TEST_F(TpcdTest, StatisticsAreExact) {
  const TableDef& part = fixture_.catalog->table(fixture_.tables.part);
  EXPECT_EQ(part.stats.columns[0].distinct, part.stats.row_count);  // key
  EXPECT_LE(part.stats.columns[2].distinct, 8);                     // brands
}

TEST_F(TpcdTest, AllQueriesOptimizeAndAgree) {
  for (const auto& named : tpcd_queries::AllQueries()) {
    SCOPED_TRACE(named.name);
    CheckOptimizersAgree(*fixture_.catalog, named.sql);
  }
}

TEST_F(TpcdTest, Q15StyleReturnsSuppliers) {
  auto q = ParseAndBind(*fixture_.catalog, tpcd_queries::TopSupplierRevenue());
  ASSERT_OK(q);
  auto optimized = OptimizeQueryWithAggViews(*q, OptimizerOptions{});
  ASSERT_OK(optimized);
  auto result = ExecutePlan(optimized->plan, optimized->query);
  ASSERT_OK(result);
  EXPECT_GT(result->rows.size(), 0u);
  // Every returned revenue exceeds the threshold.
  for (const Row& row : result->rows) {
    EXPECT_GT(row[1].AsNumeric(), 100000.0);
  }
}

TEST_F(TpcdTest, Q2StyleFindsMinimumCostSuppliers) {
  auto q = ParseAndBind(*fixture_.catalog, tpcd_queries::MinCostSupplier());
  ASSERT_OK(q);
  auto optimized = OptimizeQueryWithAggViews(*q, OptimizerOptions{});
  ASSERT_OK(optimized);
  auto result = ExecutePlan(optimized->plan, optimized->query);
  ASSERT_OK(result);
  // p_size = 15 selects ~1/50 of parts; each has >= 1 min-cost supplier.
  EXPECT_GT(result->rows.size(), 0u);
}

}  // namespace
}  // namespace aggview
