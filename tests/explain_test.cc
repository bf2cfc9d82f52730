#include <gtest/gtest.h>

#include <string>

#include "exec/operators.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Tests of the observability layer: per-operator OpStats collection,
/// plan-node attribution, Q-error computation, and the EXPLAIN ANALYZE
/// rendering.

TEST(QErrorTest, Basics) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  // Both sides clamp to >= 1 row: a correctly-predicted empty result is
  // perfect, not a division by zero.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 5), 5.0);
}

TEST(OpStatsTest, TableScanRecordsCounters) {
  ColumnCatalog cat;
  ColId id = cat.Add("t.id", DataType::kInt64);
  Table table(Schema({{"id", DataType::kInt64}}));
  for (int i = 0; i < 10; ++i) table.AppendUnchecked({Value::Int(i)});
  RowLayout layout({id});

  IoAccountant io;
  TableScanOp scan(&table, layout, {Cmp(Col(id), CompareOp::kLt, LitInt(4))},
                   layout, &cat, &io, /*charge_io=*/true);
  OpStats stats;
  scan.set_stats(&stats);
  ASSERT_OK(scan.Open());
  RowBatch batch(3);  // 4 matching rows -> a full batch, a partial, then EOS
  int64_t rows = 0;
  while (true) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    if (!*more) break;
    rows += batch.size();
  }
  scan.Close();

  EXPECT_EQ(rows, 4);
  EXPECT_EQ(stats.rows_produced, 4);
  EXPECT_EQ(stats.batches_produced, 2);   // sizes 3 and 1; no phantom tail
  EXPECT_EQ(stats.next_calls, 3);         // 2 batches + the end-of-stream call
  EXPECT_EQ(stats.input_rows, 10);        // every table row examined
  EXPECT_EQ(stats.pages_charged, table.page_count());
  EXPECT_EQ(stats.pages_charged, io.total());
  EXPECT_FALSE(OpStatsToString(stats).empty());
}

int CountPlanNodes(const PlanPtr& plan) {
  if (plan == nullptr) return 0;
  return 1 + CountPlanNodes(plan->left) + CountPlanNodes(plan->right);
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (size_t pos = 0; (pos = text.find(needle, pos)) != std::string::npos;
       pos += needle.size()) {
    ++n;
  }
  return n;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  ExplainAnalyzeTest() : db_(MakeEmpDept()) {}
  EmpDeptFixture db_;
};

TEST_F(ExplainAnalyzeTest, RootStatsMatchResultCardinality) {
  auto query = ParseAndBind(*db_.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  IoAccountant io;
  RuntimeStatsCollector stats;
  auto result = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithIo(&io).WithStats(&stats));
  ASSERT_OK(result);
  ASSERT_FALSE(stats.empty());

  const OpStats* root = stats.ForNode(optimized->plan.get());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->rows_produced,
            static_cast<int64_t>(result->rows.size()));

  // Pages attributed to operators must add up to the accountant's total.
  int64_t attributed = 0;
  for (const RuntimeStatsCollector::Entry& e : stats.entries()) {
    attributed += e.stats->pages_charged;
  }
  EXPECT_EQ(attributed, io.total());
}

TEST_F(ExplainAnalyzeTest, EveryNodeCarriesEstimateAndActual) {
  auto query = ParseAndBind(*db_.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  RuntimeStatsCollector stats;
  auto result = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithStats(&stats));
  ASSERT_OK(result);

  int nodes = CountPlanNodes(optimized->plan);
  ASSERT_GT(nodes, 1);

  std::vector<NodeQError> qerrors =
      CollectNodeQErrors(optimized->plan, optimized->query, stats);
  EXPECT_EQ(static_cast<int>(qerrors.size()), nodes);
  for (const NodeQError& n : qerrors) {
    EXPECT_GE(n.q, 1.0) << n.label;
    EXPECT_FALSE(n.label.empty());
  }

  QErrorSummary summary = SummarizeQError(qerrors);
  EXPECT_EQ(summary.nodes, nodes);
  EXPECT_GE(summary.max_q, summary.mean_q);
  EXPECT_GE(summary.mean_q, 1.0);
  EXPECT_FALSE(summary.worst_label.empty());

  std::string rendered =
      ExplainAnalyze(optimized->plan, optimized->query, stats);
  EXPECT_EQ(CountOccurrences(rendered, "est="), nodes);
  EXPECT_EQ(CountOccurrences(rendered, "act="), nodes);
  EXPECT_EQ(CountOccurrences(rendered, "batches="), nodes);
  EXPECT_EQ(CountOccurrences(rendered, "act=?"), 0)
      << "all nodes of the executed plan were lowered:\n" << rendered;
  EXPECT_NE(rendered.find("q-error"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, UnexecutedPlanRendersWithoutActuals) {
  auto query = ParseAndBind(*db_.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  // Empty collector: nothing was executed; the rendering must still cover
  // every node, marked as never executed, rather than crash or lie.
  RuntimeStatsCollector stats;
  std::string rendered =
      ExplainAnalyze(optimized->plan, optimized->query, stats);
  int nodes = CountPlanNodes(optimized->plan);
  EXPECT_EQ(CountOccurrences(rendered, "act=?"), nodes);

  std::vector<NodeQError> qerrors =
      CollectNodeQErrors(optimized->plan, optimized->query, stats);
  EXPECT_TRUE(qerrors.empty());
}

TEST_F(ExplainAnalyzeTest, UninstrumentedExecutionInstallsNoStats) {
  auto query = ParseAndBind(*db_.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  // Default ExecutePlan call: no collector, identical results.
  auto plain = ExecutePlan(optimized->plan, optimized->query);
  ASSERT_OK(plain);

  RuntimeStatsCollector stats;
  auto traced = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithStats(&stats));
  ASSERT_OK(traced);
  EXPECT_EQ(plain->Fingerprint(), traced->Fingerprint());
}

}  // namespace
}  // namespace aggview
