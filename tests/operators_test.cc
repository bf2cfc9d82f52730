#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "test_util.h"

namespace aggview {
namespace {

/// The hash join's charge, and the block-nested-loop join's over a
/// materialized inner.
const JoinOp::JoinCharge kHashCharge{};
const JoinOp::JoinCharge kBnlCharge{/*block_nested_loop=*/true,
                                    /*inner_pages_per_pass=*/0.0,
                                    /*materialize_inner=*/true};

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

/// The scan evaluates its filter on the table's columns in place, so the
/// typed slot-vs-literal lanes read their cell through the column cursor.
/// Over a table holding mistyped cells (a DOUBLE in the INT64 column, an
/// INT64 in the DOUBLE column), NULLs and -0.0, every lane's type guard must
/// still fall back exactly where Predicate::Eval does: the survivors are
/// the rows Predicate::Eval accepts, row by row.
TEST(ScanFilterLanes, MatchPredicateEvalOnMistypedAndNullCells) {
  ColumnCatalog cat;
  const ColId a = cat.Add("t.a", DataType::kInt64);
  const ColId b = cat.Add("t.b", DataType::kDouble);
  const ColId rowid = cat.Add("t.$rowid", DataType::kInt64);
  const RowLayout layout({a, b});
  Table table(Schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}}));
  const std::vector<Value> as = {Value::Int(1),    Value::Int(3),
                                 Value::Real(3.0), Value::Real(2.5),
                                 Value::Null(),    Value::Int(7)};
  const std::vector<Value> bs = {Value::Real(2.0), Value::Int(3),
                                 Value::Null(),    Value::Real(-0.0),
                                 Value::Real(3.0), Value::Int(-1)};
  for (size_t i = 0; i < as.size(); ++i) {
    for (size_t j = 0; j < bs.size(); ++j) {
      table.AppendUnchecked({as[i], bs[j]});
    }
  }

  std::vector<Predicate> preds;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    preds.push_back(Cmp(Col(a), op, LitInt(3)));     // kInt64SlotConst
    preds.push_back(Cmp(Col(b), op, LitReal(0.0)));  // kDoubleSlotConst
    preds.push_back(Cmp(Col(b), op, LitInt(3)));     // kDoubleSlotConst
    preds.push_back(Cmp(Col(a), op, LitReal(2.5)));  // kDoubleSlotConst
  }
  IoAccountant io;
  for (const Predicate& pred : preds) {
    SCOPED_TRACE(pred.ToString(cat));
    std::vector<int64_t> want;
    for (int64_t r = 0; r < table.row_count(); ++r) {
      if (pred.Eval(table.row(r), layout)) want.push_back(r);
    }
    // The output carries only the row id: the filter's column is not
    // projected.
    TableScanOp scan(&table, layout, {pred}, RowLayout({rowid}), &cat, &io,
                     /*charge_io=*/false, rowid);
    ASSERT_OK(scan.Open());
    std::vector<int64_t> got;
    RowBatch batch(5);
    while (true) {
      auto more = scan.Next(&batch);
      ASSERT_OK(more);
      if (!*more) break;
      for (int i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch.row(i).size(), 1u);
        got.push_back(batch.row(i)[0].AsInt());
      }
    }
    scan.Close();
    EXPECT_EQ(got, want);
  }
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
  auto join = std::make_unique<JoinOp>(
      Scan(), std::move(right), std::vector<Predicate>{EqCols(grp_, grp2)},
      &cat_, &io_, kHashCharge);
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
  auto join = std::make_unique<JoinOp>(
      Scan(), std::move(right),
      std::vector<Predicate>{EqCols(grp_, grp2),
                             Cmp(Col(id_), CompareOp::kLt, Col(id2))},
      &cat_, &io_, kHashCharge);
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
  auto join = std::make_unique<JoinOp>(
      Scan({}, {id_}), std::move(right),
      std::vector<Predicate>{Cmp(Col(id_), CompareOp::kLt, Col(id2))}, &cat_,
      &io_, kBnlCharge);
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
  auto nlj = std::make_unique<JoinOp>(
      Scan(), std::move(r1),
      std::vector<Predicate>{EqCols(grp_, grp_a),
                             Cmp(Col(id_), CompareOp::kLt, Col(id_a))},
      &cat_, &io_, kBnlCharge);
  size_t nlj_rows = DrainAll(nlj.get()).size();

  auto [r2, id_b, grp_b] = make_right();
  auto hash = std::make_unique<JoinOp>(
      Scan(), std::move(r2),
      std::vector<Predicate>{EqCols(grp_, grp_b),
                             Cmp(Col(id_), CompareOp::kLt, Col(id_b))},
      &cat_, &io_, kHashCharge);
  EXPECT_EQ(nlj_rows, DrainAll(hash.get()).size());
  EXPECT_EQ(nlj_rows, 12u);
}

/// The block-nested-loop charge identity: whichever input the join holds
/// and however many instances stream the other, it charges in reads exactly
/// CostModel::BnlLocalCost(outer pages, inner pages per pass) on the actual
/// input sizes, plus the inner's pages in writes when the inner is
/// materialized. The scans charge nothing here, so the accountant holds the
/// join's charge alone.
TEST_F(OperatorsTest, NestedLoopChargeIdentity) {
  // An outer of more than one block (kBufferPages - 2 pages), so the
  // formula charges several passes over the inner.
  Table big(table_.schema());
  for (int i = 0; i < 40'000; ++i) {
    big.AppendUnchecked({Value::Int(i), Value::Int(i % 3), Value::Real(i)});
  }
  const int64_t width = table_layout_.RowWidth(cat_);
  const double big_pages = CostModel::Pages(40'000, width);
  ASSERT_GT(big_pages, static_cast<double>(kBufferPages - 2));

  struct Case {
    const char* name;
    const Table* outer;
    bool bare_inner;  // per-pass pages of the base table, no write
  };
  const Case cases[] = {{"bare-scan inner", &table_, true},
                        {"materialized inner", &table_, false},
                        {"multi-pass outer", &big, false},
                        {"multi-pass outer, bare-scan inner", &big, true}};
  for (const Case& c : cases) {
    for (bool hold_outer : {false, true}) {
      for (int threads : {1, 4}) {
        const std::string where = std::string(c.name) + " held=" +
                                  (hold_outer ? "outer" : "inner") +
                                  " threads=" + std::to_string(threads);
        auto runtime =
            std::make_shared<ExecRuntime>(threads, /*morsel_rows=*/1000,
                                          /*external_pool=*/nullptr);
        ColId id2 = cat_.Add("n.id", DataType::kInt64);
        ColId grp2 = cat_.Add("n.grp", DataType::kInt64);
        ColId v2 = cat_.Add("n.v", DataType::kDouble);
        IoAccountant io;
        auto outer = std::make_unique<TableScanOp>(
            c.outer, table_layout_, std::vector<Predicate>{}, table_layout_,
            &cat_, &io, /*charge_io=*/false);
        RowLayout inner_layout({id2, grp2, v2});
        auto inner = std::make_unique<TableScanOp>(
            &table_, inner_layout, std::vector<Predicate>{}, inner_layout,
            &cat_, &io, /*charge_io=*/false);
        outer->set_exec(runtime);
        inner->set_exec(runtime);
        const double per_pass =
            c.bare_inner ? static_cast<double>(table_.page_count()) : 0.0;
        JoinOp join(std::move(outer), std::move(inner), {EqCols(id_, id2)},
                    &cat_, &io,
                    JoinOp::JoinCharge{/*block_nested_loop=*/true, per_pass,
                                       /*materialize_inner=*/!c.bare_inner},
                    /*left_outer=*/false, hold_outer);
        join.set_exec(runtime);
        ASSERT_TRUE(join.Open().ok()) << where;
        std::vector<int64_t> rows(static_cast<size_t>(threads), 0);
        Status status = RunMorselParallel(
            &join, threads, [&](int w, Operator* instance) -> Status {
              RowBatch batch(kDefaultBatchSize);
              while (true) {
                auto more = instance->Next(&batch);
                if (!more.ok()) return more.status();
                if (!*more) return Status::OK();
                rows[static_cast<size_t>(w)] += batch.size();
              }
            });
        join.Close();
        ASSERT_TRUE(status.ok()) << where;
        int64_t total = 0;
        for (int64_t n : rows) total += n;
        EXPECT_EQ(total, 10) << where;  // ids 0..9 match once each

        const double outer_pages =
            CostModel::Pages(static_cast<double>(c.outer->row_count()), width);
        const double inner_pages =
            CostModel::Pages(static_cast<double>(table_.row_count()), width);
        EXPECT_EQ(io.reads(), static_cast<int64_t>(CostModel::BnlLocalCost(
                                  outer_pages, c.bare_inner ? per_pass
                                                            : inner_pages)))
            << where;
        EXPECT_EQ(io.writes(),
                  c.bare_inner ? 0 : static_cast<int64_t>(inner_pages))
            << where;
      }
    }
  }
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
  auto join = std::make_unique<JoinOp>(
      Scan(), std::move(right), std::vector<Predicate>{EqCols(grp_, grp2)},
      &cat_, &io_, kHashCharge);
  EXPECT_EQ(DrainAll(join.get()).size(), 0u);
}

TEST_F(OperatorsTest, DuplicateKeyBlockJoinsEveryPair) {
  // All 4 x 4 rows share one key: every join emits the full cross product,
  // whichever input it holds. With 4 workers claiming one-row morsels, the
  // held rows are spread over the workers' tables, so the key's chain must
  // join every worker's rows after the partition merge.
  Table ones(Schema({{"k", DataType::kInt64}}));
  for (int i = 0; i < 4; ++i) ones.AppendUnchecked({Value::Int(1)});
  struct Case {
    const char* name;
    JoinOp::JoinCharge charge;
    bool hold_left;
    int threads;
  };
  const Case cases[] = {{"hash", kHashCharge, false, 1},
                        {"bnl holding the outer", kBnlCharge, true, 1},
                        {"bnl holding the inner", kBnlCharge, false, 1},
                        {"hash, held side drained by 4 workers", kHashCharge,
                         false, 4}};
  for (const Case& c : cases) {
    ColId k1 = cat_.Add("a.k", DataType::kInt64);
    ColId k2 = cat_.Add("b.k", DataType::kInt64);
    auto l = std::make_unique<TableScanOp>(&ones, RowLayout({k1}),
                                           std::vector<Predicate>{},
                                           RowLayout({k1}), &cat_, &io_, true);
    auto r = std::make_unique<TableScanOp>(&ones, RowLayout({k2}),
                                           std::vector<Predicate>{},
                                           RowLayout({k2}), &cat_, &io_, true);
    auto runtime = std::make_shared<ExecRuntime>(
        c.threads, /*morsel_rows=*/1, /*external_pool=*/nullptr);
    l->set_exec(runtime);
    r->set_exec(runtime);
    JoinOp join(std::move(l), std::move(r), {EqCols(k1, k2)}, &cat_, &io_,
                c.charge, /*left_outer=*/false, c.hold_left);
    join.set_exec(runtime);
    EXPECT_EQ(DrainAll(&join).size(), 16u) << c.name;
  }
}

/// The join's key hash folds Value::Hash, which hashes equal numerics of
/// different types alike. Held and streamed sides mixing Int(3) and
/// Real(3.0), Real(-0.0) and Int(0), NULLs and a run of duplicates must pair
/// exactly as a nested loop over Predicate::Eval does — under every join
/// algorithm and held side, serially and with the held side built by
/// workers, at every batch size.
TEST(JoinKeys, MixedTypeKeysMatchPredicateEval) {
  ColumnCatalog cat;
  const ColId lk = cat.Add("l.k", DataType::kDouble);
  const ColId lt = cat.Add("l.tag", DataType::kInt64);
  const ColId rk = cat.Add("r.k", DataType::kDouble);
  const ColId rt = cat.Add("r.tag", DataType::kInt64);
  Table table(Schema({{"k", DataType::kDouble}, {"tag", DataType::kInt64}}));
  std::vector<Value> keys = {Value::Int(3),     Value::Real(3.0),
                             Value::Real(-0.0), Value::Int(0),
                             Value::Null(),     Value::Real(2.5)};
  // Past 2^53 equality is not transitive: Real(2^53) equals both Ints,
  // which differ, and all three hash alike.
  const int64_t big = int64_t{1} << 53;
  keys.push_back(Value::Int(big));
  keys.push_back(Value::Int(big + 1));
  keys.push_back(Value::Real(static_cast<double>(big)));
  for (int i = 0; i < 6; ++i) keys.push_back(Value::Int(7));
  keys.push_back(Value::Null());
  for (size_t i = 0; i < keys.size(); ++i) {
    table.AppendUnchecked({keys[i], Value::Int(static_cast<int64_t>(i))});
  }
  const Predicate eq = EqCols(lk, rk);

  // Reference: every (left, right) pair the predicate accepts.
  const RowLayout joined({lk, lt, rk, rt});
  QueryResult expected{joined, {}};
  for (int64_t i = 0; i < table.row_count(); ++i) {
    for (int64_t j = 0; j < table.row_count(); ++j) {
      Row row = table.row(static_cast<size_t>(i));
      Row right = table.row(static_cast<size_t>(j));
      row.insert(row.end(), right.begin(), right.end());
      if (eq.Eval(row, joined)) expected.rows.push_back(std::move(row));
    }
  }
  // 3 ~ 3.0 (2 x 2), -0.0 ~ 0 (2 x 2), 7 (6 x 6), 2.5 (1), 2^53 (7 of the
  // 3 x 3: all but the two Ints paired); NULLs never.
  ASSERT_EQ(expected.rows.size(), 52u);

  struct Case {
    const char* name;
    JoinOp::JoinCharge charge;
    bool hold_left;
  };
  const Case cases[] = {{"hash", kHashCharge, false},
                        {"bnl holding the outer", kBnlCharge, true},
                        {"bnl holding the inner", kBnlCharge, false}};
  for (const Case& c : cases) {
    for (int threads : {1, 2, 8}) {
      for (int64_t morsel_rows : {int64_t{2}, int64_t{16384}}) {
        for (int batch : {1, 1024}) {
          const std::string where =
              std::string(c.name) + " threads=" + std::to_string(threads) +
              " morsel=" + std::to_string(morsel_rows) +
              " batch=" + std::to_string(batch);
          auto runtime = std::make_shared<ExecRuntime>(
              threads, morsel_rows, /*external_pool=*/nullptr);
          IoAccountant io;
          auto l = std::make_unique<TableScanOp>(
              &table, RowLayout({lk, lt}), std::vector<Predicate>{},
              RowLayout({lk, lt}), &cat, &io, /*charge_io=*/true);
          auto r = std::make_unique<TableScanOp>(
              &table, RowLayout({rk, rt}), std::vector<Predicate>{},
              RowLayout({rk, rt}), &cat, &io, /*charge_io=*/true);
          for (Operator* scan : {static_cast<Operator*>(l.get()),
                                 static_cast<Operator*>(r.get())}) {
            scan->set_exec(runtime);
            scan->set_batch_size(batch);
          }
          JoinOp join(std::move(l), std::move(r), {eq}, &cat, &io, c.charge,
                      /*left_outer=*/false, c.hold_left);
          join.set_exec(runtime);
          join.set_batch_size(batch);
          ASSERT_TRUE(join.Open().ok()) << where;
          std::vector<std::vector<Row>> rows(static_cast<size_t>(threads));
          Status status = RunMorselParallel(
              &join, threads, [&](int w, Operator* instance) -> Status {
                RowBatch out(batch);
                while (true) {
                  auto more = instance->Next(&out);
                  if (!more.ok()) return more.status();
                  if (!*more) return Status::OK();
                  for (int i = 0; i < out.size(); ++i) {
                    rows[static_cast<size_t>(w)].push_back(out.row(i));
                  }
                }
              });
          join.Close();
          ASSERT_TRUE(status.ok()) << where;
          QueryResult actual{joined, {}};
          for (std::vector<Row>& part : rows) {
            for (Row& row : part) actual.rows.push_back(std::move(row));
          }
          EXPECT_EQ(actual.rows.size(), expected.rows.size()) << where;
          EXPECT_EQ(actual.Fingerprint(), expected.Fingerprint()) << where;
        }
      }
    }
  }
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
  JoinOp join(Scan(), std::make_unique<FailingOp>(RowLayout({k}), 1),
              {EqCols(grp_, k)}, &cat_, &io_, kHashCharge);
  EXPECT_EQ(join.Open().code(), StatusCode::kExecutionError);
}

TEST_F(OperatorsTest, FailureInProbeSideSurfacesAtNext) {
  ColId k = cat_.Add("fail2.k", DataType::kInt64);
  JoinOp join(std::make_unique<FailingOp>(RowLayout({k}), 1), Scan(),
              {EqCols(k, grp_)}, &cat_, &io_, kHashCharge);
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

}  // namespace
}  // namespace aggview
