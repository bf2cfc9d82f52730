#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "storage/io_accountant.h"

namespace aggview {
namespace {

TEST(CostModelTest, Pages) {
  EXPECT_DOUBLE_EQ(CostModel::Pages(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(CostModel::Pages(1, 8), 1.0);
  double per_page = static_cast<double>(RowsPerPage(8));
  EXPECT_DOUBLE_EQ(CostModel::Pages(per_page, 8), 1.0);
  EXPECT_DOUBLE_EQ(CostModel::Pages(per_page + 1, 8), 2.0);
}

TEST(CostModelTest, ScanIsLinear) {
  EXPECT_DOUBLE_EQ(CostModel::ScanCost(100), 100.0);
}

TEST(CostModelTest, BnlChargesOuterPlusPasses) {
  double block = static_cast<double>(kBufferPages - 2);
  // One block of outer pages: read the outer + a single pass over the inner.
  EXPECT_DOUBLE_EQ(CostModel::BnlLocalCost(1, 100), 101.0);
  EXPECT_DOUBLE_EQ(CostModel::BnlLocalCost(block, 100), block + 100.0);
  EXPECT_DOUBLE_EQ(CostModel::BnlLocalCost(block + 1, 100), block + 201.0);
  // Even an empty outer needs one pass (formula floor).
  EXPECT_DOUBLE_EQ(CostModel::BnlLocalCost(0, 100), 100.0);
}

TEST(CostModelTest, HashJoinReadsInputsWithoutSpill) {
  EXPECT_DOUBLE_EQ(CostModel::HashJoinLocalCost(10, kBufferPages),
                   10.0 + kBufferPages);
  EXPECT_DOUBLE_EQ(CostModel::HashJoinLocalCost(kBufferPages, 1e6),
                   kBufferPages + 1e6);
}

TEST(CostModelTest, HashJoinSpillsAtTwoExtraPasses) {
  double l = kBufferPages * 4, r = kBufferPages * 8;
  EXPECT_DOUBLE_EQ(CostModel::HashJoinLocalCost(l, r), 3.0 * (l + r));
}

TEST(CostModelTest, SortFreeInMemory) {
  EXPECT_DOUBLE_EQ(CostModel::SortCost(kBufferPages), 0.0);
}

TEST(CostModelTest, SortChargesPasses) {
  double p = kBufferPages * 4;
  EXPECT_DOUBLE_EQ(CostModel::SortCost(p), 2.0 * p);  // one merge pass
  double big = kBufferPages * (kBufferPages + 10);
  EXPECT_GE(CostModel::SortCost(big), 2.0 * big);  // at least one pass
}

TEST(CostModelTest, HashAggFreeInMemoryElseTwoPasses) {
  EXPECT_DOUBLE_EQ(CostModel::HashAggLocalCost(kBufferPages), 0.0);
  EXPECT_DOUBLE_EQ(CostModel::HashAggLocalCost(kBufferPages * 2),
                   4.0 * kBufferPages);
}

TEST(CostModelTest, JoinAlgoNames) {
  EXPECT_STREQ(JoinAlgoName(JoinAlgo::kBlockNestedLoop), "bnl");
  EXPECT_STREQ(JoinAlgoName(JoinAlgo::kHash), "hash");
}

TEST(CostModelTest, Monotonicity) {
  // Bigger inputs never cost less (spot checks used by the DP argument).
  EXPECT_LE(CostModel::BnlLocalCost(10, 50), CostModel::BnlLocalCost(20, 50));
  EXPECT_LE(CostModel::BnlLocalCost(10, 50), CostModel::BnlLocalCost(10, 60));
  EXPECT_LE(CostModel::HashJoinLocalCost(100, 200),
            CostModel::HashJoinLocalCost(150, 200) + 1e-9);
  EXPECT_LE(CostModel::SortCost(100), CostModel::SortCost(200));
}

}  // namespace
}  // namespace aggview
