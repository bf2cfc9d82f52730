#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "exec/operators.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Minimal harness: a scratch table, a column catalog, and layouts.
class OperatorsTest : public ::testing::Test {
 protected:
  OperatorsTest()
      : table_(Schema({{"id", DataType::kInt64},
                       {"grp", DataType::kInt64},
                       {"v", DataType::kDouble}})) {
    id_ = cat_.Add("t.id", DataType::kInt64);
    grp_ = cat_.Add("t.grp", DataType::kInt64);
    v_ = cat_.Add("t.v", DataType::kDouble);
    table_layout_ = RowLayout({id_, grp_, v_});
    for (int i = 0; i < 10; ++i) {
      table_.AppendUnchecked(
          {Value::Int(i), Value::Int(i % 3), Value::Real(i * 1.0)});
    }
  }

  OperatorPtr Scan(std::vector<Predicate> filter = {},
                   std::vector<ColId> output = {}) {
    if (output.empty()) output = {id_, grp_, v_};
    return std::make_unique<TableScanOp>(&table_, table_layout_,
                                         std::move(filter), RowLayout(output),
                                         &cat_, &io_, /*charge_io=*/true);
  }

  /// Drains through the batch protocol with a deliberately small odd
  /// capacity, so multi-row results straddle batch boundaries.
  static std::vector<Row> DrainAll(Operator* op, int batch_size = 7) {
    EXPECT_TRUE(op->Open().ok());
    std::vector<Row> rows;
    RowBatch batch(batch_size);
    while (true) {
      auto more = op->Next(&batch);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
      for (int i = 0; i < batch.size(); ++i) rows.push_back(batch.row(i));
    }
    op->Close();
    return rows;
  }

  ColumnCatalog cat_;
  ColId id_, grp_, v_;
  Table table_;
  RowLayout table_layout_;
  IoAccountant io_;
};

TEST_F(OperatorsTest, ScanProducesAllRows) {
  auto scan = Scan();
  EXPECT_EQ(DrainAll(scan.get()).size(), 10u);
  EXPECT_EQ(io_.reads(), table_.page_count());
}

TEST_F(OperatorsTest, ScanAppliesFilter) {
  auto scan = Scan({Cmp(Col(grp_), CompareOp::kEq, LitInt(0))});
  auto rows = DrainAll(scan.get());
  EXPECT_EQ(rows.size(), 4u);  // 0,3,6,9
}

TEST_F(OperatorsTest, ScanProjects) {
  auto scan = Scan({}, {v_});
  auto rows = DrainAll(scan.get());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].size(), 1u);
}

TEST_F(OperatorsTest, ScanChargeToggle) {
  TableScanOp uncharged(&table_, table_layout_, {}, table_layout_, &cat_,
                        &io_, /*charge_io=*/false);
  DrainAll(&uncharged);
  EXPECT_EQ(io_.reads(), 0);
}

TEST_F(OperatorsTest, FilterOp) {
  auto op = std::make_unique<FilterOp>(
      Scan(), std::vector<Predicate>{Cmp(Col(id_), CompareOp::kLt, LitInt(3))},
      &cat_);
  EXPECT_EQ(DrainAll(op.get()).size(), 3u);
}

TEST_F(OperatorsTest, ProjectOpReorders) {
  auto op = std::make_unique<ProjectOp>(Scan(), RowLayout({v_, id_}));
  auto rows = DrainAll(op.get());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_TRUE(rows[0][0].is_double());
  EXPECT_TRUE(rows[0][1].is_int());
}

TEST_F(OperatorsTest, HashJoinMatchesPairs) {
  // Self-join on grp: 10 rows in 3 groups of sizes 4,3,3 -> 16+9+9 = 34.
  ColId id2 = cat_.Add("u.id", DataType::kInt64);
  ColId grp2 = cat_.Add("u.grp", DataType::kInt64);
  ColId v2 = cat_.Add("u.v", DataType::kDouble);
  auto right = std::make_unique<TableScanOp>(
      &table_, RowLayout({id2, grp2, v2}), std::vector<Predicate>{},
      RowLayout({id2, grp2}), &cat_, &io_, true);
  auto join = std::make_unique<HashJoinOp>(
      Scan(), std::move(right),
      std::vector<std::pair<ColId, ColId>>{{grp_, grp2}},
      std::vector<Predicate>{}, &cat_, &io_);
  EXPECT_EQ(DrainAll(join.get()).size(), 34u);
}

TEST_F(OperatorsTest, HashJoinResidualPredicates) {
  ColId id2 = cat_.Add("u.id", DataType::kInt64);
  ColId grp2 = cat_.Add("u.grp", DataType::kInt64);
  ColId v2 = cat_.Add("u.v", DataType::kDouble);
  auto right = std::make_unique<TableScanOp>(
      &table_, RowLayout({id2, grp2, v2}), std::vector<Predicate>{},
      RowLayout({id2, grp2}), &cat_, &io_, true);
  // grp equal and left id strictly smaller.
  auto join = std::make_unique<HashJoinOp>(
      Scan(), std::move(right),
      std::vector<std::pair<ColId, ColId>>{{grp_, grp2}},
      std::vector<Predicate>{Cmp(Col(id_), CompareOp::kLt, Col(id2))}, &cat_,
      &io_);
  // Pairs (a<b) within groups: C(4,2)+C(3,2)+C(3,2) = 6+3+3 = 12.
  EXPECT_EQ(DrainAll(join.get()).size(), 12u);
}

TEST_F(OperatorsTest, NestedLoopJoinArbitraryPredicate) {
  ColId id2 = cat_.Add("u.id", DataType::kInt64);
  ColId grp2 = cat_.Add("u.grp", DataType::kInt64);
  ColId v2 = cat_.Add("u.v", DataType::kDouble);
  auto right = std::make_unique<TableScanOp>(
      &table_, RowLayout({id2, grp2, v2}), std::vector<Predicate>{},
      RowLayout({id2}), &cat_, &io_, true);
  auto join = std::make_unique<NestedLoopJoinOp>(
      Scan({}, {id_}), std::move(right),
      std::vector<Predicate>{Cmp(Col(id_), CompareOp::kLt, Col(id2))}, &cat_,
      &io_, /*inner_pages_per_pass=*/0.0, /*charge_materialize=*/true);
  // #pairs with a<b among 10x10 = 45.
  EXPECT_EQ(DrainAll(join.get()).size(), 45u);
}

TEST_F(OperatorsTest, NestedLoopIndexFastPathMatchesHashJoin) {
  // NLJ extracts equi-join conjuncts into an internal index; with a mixed
  // equi + residual predicate set it must produce exactly the hash join's
  // residual-filtered result.
  auto make_right = [&]() {
    ColId id2 = cat_.Add("x.id", DataType::kInt64);
    ColId grp2 = cat_.Add("x.grp", DataType::kInt64);
    ColId v2 = cat_.Add("x.v", DataType::kDouble);
    return std::tuple(std::make_unique<TableScanOp>(
                          &table_, RowLayout({id2, grp2, v2}),
                          std::vector<Predicate>{}, RowLayout({id2, grp2}),
                          &cat_, &io_, true),
                      id2, grp2);
  };
  auto [r1, id_a, grp_a] = make_right();
  auto nlj = std::make_unique<NestedLoopJoinOp>(
      Scan(), std::move(r1),
      std::vector<Predicate>{EqCols(grp_, grp_a),
                             Cmp(Col(id_), CompareOp::kLt, Col(id_a))},
      &cat_, &io_, 0.0, true);
  size_t nlj_rows = DrainAll(nlj.get()).size();

  auto [r2, id_b, grp_b] = make_right();
  auto hash = std::make_unique<HashJoinOp>(
      Scan(), std::move(r2),
      std::vector<std::pair<ColId, ColId>>{{grp_, grp_b}},
      std::vector<Predicate>{Cmp(Col(id_), CompareOp::kLt, Col(id_b))}, &cat_,
      &io_);
  EXPECT_EQ(nlj_rows, DrainAll(hash.get()).size());
  EXPECT_EQ(nlj_rows, 12u);
}

TEST_F(OperatorsTest, ScanOverEmptyTable) {
  Table empty(Schema({{"id", DataType::kInt64}}));
  ColId c = cat_.Add("empty.id", DataType::kInt64);
  TableScanOp scan(&empty, RowLayout({c}), {}, RowLayout({c}), &cat_, &io_,
                   true);
  EXPECT_EQ(DrainAll(&scan).size(), 0u);
  EXPECT_EQ(io_.reads(), 0);  // zero pages
}

TEST_F(OperatorsTest, JoinWithEmptyBuildSide) {
  Table empty(Schema({{"id", DataType::kInt64}, {"grp", DataType::kInt64},
                      {"v", DataType::kDouble}}));
  ColId id2 = cat_.Add("y.id", DataType::kInt64);
  ColId grp2 = cat_.Add("y.grp", DataType::kInt64);
  ColId v2 = cat_.Add("y.v", DataType::kDouble);
  auto right = std::make_unique<TableScanOp>(
      &empty, RowLayout({id2, grp2, v2}), std::vector<Predicate>{},
      RowLayout({id2, grp2}), &cat_, &io_, true);
  auto join = std::make_unique<HashJoinOp>(
      Scan(), std::move(right),
      std::vector<std::pair<ColId, ColId>>{{grp_, grp2}},
      std::vector<Predicate>{}, &cat_, &io_);
  EXPECT_EQ(DrainAll(join.get()).size(), 0u);
}

TEST_F(OperatorsTest, SortMergeJoinEqualsHashJoin) {
  auto make_right = [&](ColId* gid) {
    ColId id2 = cat_.Add("w.id", DataType::kInt64);
    ColId grp2 = cat_.Add("w.grp", DataType::kInt64);
    ColId v2 = cat_.Add("w.v", DataType::kDouble);
    *gid = grp2;
    return std::make_unique<TableScanOp>(
        &table_, RowLayout({id2, grp2, v2}), std::vector<Predicate>{},
        RowLayout({id2, grp2}), &cat_, &io_, true);
  };
  ColId g1;
  auto right = make_right(&g1);
  auto smj = std::make_unique<SortMergeJoinOp>(
      Scan(), std::move(right),
      std::vector<std::pair<ColId, ColId>>{{grp_, g1}},
      std::vector<Predicate>{}, &cat_, &io_);
  EXPECT_EQ(DrainAll(smj.get()).size(), 34u);
}

TEST_F(OperatorsTest, SortMergeJoinDuplicateBlocks) {
  // All rows share one key: full cross product must be emitted.
  Table ones(Schema({{"k", DataType::kInt64}}));
  for (int i = 0; i < 4; ++i) ones.AppendUnchecked({Value::Int(1)});
  ColId k1 = cat_.Add("a.k", DataType::kInt64);
  ColId k2 = cat_.Add("b.k", DataType::kInt64);
  auto l = std::make_unique<TableScanOp>(&ones, RowLayout({k1}),
                                         std::vector<Predicate>{},
                                         RowLayout({k1}), &cat_, &io_, true);
  auto r = std::make_unique<TableScanOp>(&ones, RowLayout({k2}),
                                         std::vector<Predicate>{},
                                         RowLayout({k2}), &cat_, &io_, true);
  auto smj = std::make_unique<SortMergeJoinOp>(
      std::move(l), std::move(r),
      std::vector<std::pair<ColId, ColId>>{{k1, k2}}, std::vector<Predicate>{},
      &cat_, &io_);
  EXPECT_EQ(DrainAll(smj.get()).size(), 16u);
}

TEST_F(OperatorsTest, HashAggregateComputesGroups) {
  ColId cnt = cat_.Add("count(*)", DataType::kInt64);
  ColId total = cat_.Add("sum(v)", DataType::kDouble);
  GroupBySpec spec;
  spec.grouping = {grp_};
  spec.aggregates = {{AggKind::kCountStar, {}, cnt},
                     {AggKind::kSum, {v_}, total}};
  auto agg = std::make_unique<HashAggregateOp>(Scan(), spec, &cat_, &io_);
  auto rows = DrainAll(agg.get());
  ASSERT_EQ(rows.size(), 3u);
  double grand_total = 0;
  int64_t grand_count = 0;
  for (const Row& r : rows) {
    grand_count += r[1].AsInt();
    grand_total += r[2].AsNumeric();
  }
  EXPECT_EQ(grand_count, 10);
  EXPECT_DOUBLE_EQ(grand_total, 45.0);
}

TEST_F(OperatorsTest, HashAggregateHaving) {
  ColId cnt = cat_.Add("count(*)", DataType::kInt64);
  GroupBySpec spec;
  spec.grouping = {grp_};
  spec.aggregates = {{AggKind::kCountStar, {}, cnt}};
  spec.having = {Cmp(Col(cnt), CompareOp::kGt, LitInt(3))};
  auto agg = std::make_unique<HashAggregateOp>(Scan(), spec, &cat_, &io_);
  auto rows = DrainAll(agg.get());
  ASSERT_EQ(rows.size(), 1u);  // only group 0 has 4 members
  EXPECT_EQ(rows[0][0].AsInt(), 0);
}

TEST_F(OperatorsTest, ScalarAggregateEmptyGrouping) {
  ColId cnt = cat_.Add("count(*)", DataType::kInt64);
  GroupBySpec spec;
  spec.aggregates = {{AggKind::kCountStar, {}, cnt}};
  auto agg = std::make_unique<HashAggregateOp>(Scan(), spec, &cat_, &io_);
  auto rows = DrainAll(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 10);
}

/// A morsel-parallel source whose instance k (the primary is 0, the k-th
/// clone is k) emits the k-th scripted partition, so a parallel
/// HashAggregateOp's worker partials have known contents regardless of
/// scheduling.
class ScriptedPartitionsOp final : public Operator {
 public:
  ScriptedPartitionsOp(RowLayout layout, std::vector<std::vector<Row>> parts)
      : parts_(std::make_shared<const std::vector<std::vector<Row>>>(
            std::move(parts))) {
    layout_ = std::move(layout);
  }

  bool CanRunMorselParallel() const override { return true; }
  OperatorPtr CloneForWorker() override {
    return OperatorPtr(new ScriptedPartitionsOp(*this, ++clones_));
  }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextBatchImpl(RowBatch* out) override {
    const std::vector<Row>& part = (*parts_)[index_];
    while (pos_ < part.size() && !out->full()) out->AppendRow() = part[pos_++];
    return !out->empty();
  }

 private:
  ScriptedPartitionsOp(const ScriptedPartitionsOp& primary, size_t index)
      : parts_(primary.parts_), index_(index) {
    InitWorkerClone(primary);
  }

  std::shared_ptr<const std::vector<std::vector<Row>>> parts_;
  size_t index_ = 0;
  size_t clones_ = 0;
  size_t pos_ = 0;
};

/// Worker partials in different lanes: a worker that met a Real key left the
/// INT64 lane, one that met only Int and NULL keys did not. Whichever worker
/// order they merge in, 1 and 1.0 must stay one group and NULL one group.
TEST_F(OperatorsTest, ParallelAggregateMergesPartialsAcrossLanes) {
  ColId cnt = cat_.Add("count(*)", DataType::kInt64);
  ColId total = cat_.Add("sum(v)", DataType::kDouble);
  GroupBySpec spec;
  spec.grouping = {grp_};
  spec.aggregates = {{AggKind::kCountStar, {}, cnt},
                     {AggKind::kSum, {v_}, total}};
  auto row = [](Value grp, double v) {
    return Row{Value::Int(0), std::move(grp), Value::Real(v)};
  };
  const std::vector<Row> migrated = {row(Value::Real(1.0), 1),
                                     row(Value::Null(), 2),
                                     row(Value::Int(2), 4)};
  const std::vector<Row> int_lane = {row(Value::Int(1), 8),
                                     row(Value::Null(), 16),
                                     row(Value::Int(3), 32)};
  auto render = [](const Row& r) {
    char key[32] = "NULL";
    if (!r[0].is_null()) {
      std::snprintf(key, sizeof(key), "%g", r[0].AsNumeric());
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s|%lld|%g", key,
                  static_cast<long long>(r[1].AsInt()), r[2].AsNumeric());
    return std::string(buf);
  };
  struct Case {
    std::vector<std::vector<Row>> parts;
    std::vector<std::string> want;  // sorted "key|count|sum" lines
  };
  const Case cases[] = {
      {{migrated, int_lane}, {"1|2|9", "2|1|4", "3|1|32", "NULL|2|18"}},
      {{int_lane, migrated}, {"1|2|9", "2|1|4", "3|1|32", "NULL|2|18"}},
      {{int_lane, migrated, int_lane},
       {"1|3|17", "2|1|4", "3|2|64", "NULL|3|34"}},
  };
  for (const Case& c : cases) {
    auto runtime = std::make_shared<ExecRuntime>(
        static_cast<int>(c.parts.size()), kDefaultMorselRows, nullptr);
    auto source =
        std::make_unique<ScriptedPartitionsOp>(table_layout_, c.parts);
    source->set_exec(runtime);
    HashAggregateOp agg(std::move(source), spec, &cat_, &io_);
    agg.set_exec(runtime);
    std::vector<std::string> got;
    for (const Row& r : DrainAll(&agg)) got.push_back(render(r));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, c.want) << "partials: " << c.parts.size();
  }
}

TEST_F(OperatorsTest, HashAggregateMissingColumnFails) {
  ColId phantom = cat_.Add("phantom", DataType::kInt64);
  GroupBySpec spec;
  spec.grouping = {phantom};
  auto agg = std::make_unique<HashAggregateOp>(Scan(), spec, &cat_, &io_);
  EXPECT_FALSE(agg->Open().ok());
}

TEST_F(OperatorsTest, ProjectMissingColumnFails) {
  ColId phantom = cat_.Add("phantom", DataType::kInt64);
  auto op = std::make_unique<ProjectOp>(Scan(), RowLayout({phantom}));
  EXPECT_FALSE(op->Open().ok());
}

/// Failure injection: an operator that errors after N rows; the error must
/// surface through every downstream operator, not crash or vanish.
class FailingOp final : public Operator {
 public:
  FailingOp(RowLayout layout, int rows_before_failure)
      : remaining_(rows_before_failure) {
    layout_ = std::move(layout);
  }
 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      if (remaining_ <= 0) {
        return Status::ExecutionError("injected failure");
      }
      --remaining_;
      out->AppendRow().assign(static_cast<size_t>(layout_.size()),
                              Value::Int(remaining_));
    }
    return true;
  }

 private:
  int remaining_;
};

TEST_F(OperatorsTest, FailurePropagatesThroughFilter) {
  FilterOp op(std::make_unique<FailingOp>(RowLayout({id_}), 2),
              {Cmp(Col(id_), CompareOp::kGe, LitInt(0))}, &cat_);
  // Degenerate batches, so the two good rows drain before the failure.
  op.set_batch_size(1);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch(1);
  ASSERT_TRUE(*op.Next(&batch));
  ASSERT_TRUE(*op.Next(&batch));
  auto r = op.Next(&batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(OperatorsTest, FailureInBuildSideSurfacesAtOpen) {
  ColId k = cat_.Add("fail.k", DataType::kInt64);
  HashJoinOp join(Scan(), std::make_unique<FailingOp>(RowLayout({k}), 1),
                  {{grp_, k}}, {}, &cat_, &io_);
  EXPECT_EQ(join.Open().code(), StatusCode::kExecutionError);
}

TEST_F(OperatorsTest, FailureInProbeSideSurfacesAtNext) {
  ColId k = cat_.Add("fail2.k", DataType::kInt64);
  HashJoinOp join(std::make_unique<FailingOp>(RowLayout({k}), 1), Scan(),
                  {{k, grp_}}, {}, &cat_, &io_);
  ASSERT_TRUE(join.Open().ok());
  RowBatch batch(4);
  while (true) {
    auto r = join.Next(&batch);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
      break;
    }
    ASSERT_TRUE(*r);  // must not end cleanly before the failure
  }
}

TEST_F(OperatorsTest, FailurePropagatesThroughAggregate) {
  GroupBySpec spec;
  ColId c = cat_.Add("cnt", DataType::kInt64);
  spec.aggregates = {{AggKind::kCountStar, {}, c}};
  HashAggregateOp agg(std::make_unique<FailingOp>(RowLayout({id_}), 3), spec,
                      &cat_, &io_);
  EXPECT_EQ(agg.Open().code(), StatusCode::kExecutionError);
}

TEST_F(OperatorsTest, FailurePropagatesThroughSortMerge) {
  ColId k = cat_.Add("fail3.k", DataType::kInt64);
  SortMergeJoinOp join(std::make_unique<FailingOp>(RowLayout({k}), 2), Scan(),
                       {{k, grp_}}, {}, &cat_, &io_);
  EXPECT_EQ(join.Open().code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace aggview
