#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Batch-boundary tests for the vectorized execution engine: the batch size
/// is a pure throughput knob, so every query must compute the identical
/// result at size 1 (row-at-a-time degenerate), tiny odd sizes (rows straddle
/// batch boundaries everywhere), and the default 1024. Plus the protocol
/// edge cases: empty inputs, cardinalities that are exact multiples of the
/// batch size (no phantom empty tail batch), and post-EOS Next calls.

TEST(RowBatchTest, AppendPopClearReuseSlots) {
  RowBatch batch(3);
  EXPECT_EQ(batch.capacity(), 3);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());

  batch.AppendRow() = {Value::Int(1)};
  batch.AppendRow() = {Value::Int(2), Value::Int(3)};
  EXPECT_EQ(batch.size(), 2);
  batch.PopRow();
  EXPECT_EQ(batch.size(), 1);
  EXPECT_EQ(batch.row(0)[0].AsInt(), 1);

  batch.AppendRow() = {Value::Int(4)};
  batch.AppendRow() = {Value::Int(5)};
  EXPECT_TRUE(batch.full());

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 3);
  // A reused slot comes back emptied, not carrying the old row.
  Row& slot = batch.AppendRow();
  EXPECT_TRUE(slot.empty());
}

TEST(RowBatchTest, NonPositiveCapacityClampsToOne) {
  RowBatch batch(0);
  EXPECT_EQ(batch.capacity(), 1);
  batch.AppendRow() = {Value::Int(7)};
  EXPECT_TRUE(batch.full());
}

/// Saves and restores one environment variable for the duration of a test
/// (CI runs the suite with AGGVIEW_TEST_* already set; the tests below must
/// observe only their own values).
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* ambient = std::getenv(name);
    had_ = ambient != nullptr;
    saved_ = had_ ? ambient : "";
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }
  void Set(const char* value) { setenv(name_, value, /*overwrite=*/1); }
  void Unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

TEST(ExecContextEnvTest, BatchSizeOverrideIsValidatedAndClamped) {
  ScopedEnv env("AGGVIEW_TEST_BATCH_SIZE");

  EXPECT_EQ(ExecContext{}.batch_size, kDefaultBatchSize);
  env.Set("7");
  EXPECT_EQ(ExecContext::Default().batch_size, 7);
  // Non-positive values are ignored, not honoured as batch size zero.
  env.Set("0");
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
  env.Set("-16");
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
  // Garbage falls back instead of atoi-ing to 0; so does trailing junk.
  env.Set("lots");
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
  env.Set("64k");
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
  env.Set("");
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
  // Absurdly large values clamp to the documented ceiling rather than
  // overflowing int or allocating a terabyte batch.
  env.Set("99999999999999999999");
  EXPECT_EQ(ExecContext::Default().batch_size, kMaxEnvBatchSize);
  env.Set("2000000");
  EXPECT_EQ(ExecContext::Default().batch_size, kMaxEnvBatchSize);
  env.Unset();
  EXPECT_EQ(ExecContext::Default().batch_size, kDefaultBatchSize);
}

TEST(ExecContextEnvTest, ThreadsOverrideIsValidatedAndClamped) {
  ScopedEnv env("AGGVIEW_TEST_THREADS");

  env.Set("8");
  EXPECT_EQ(ExecContext::Default().threads, 8);
  env.Set("-2");
  EXPECT_EQ(ExecContext::Default().threads, 1);
  env.Set("all");
  EXPECT_EQ(ExecContext::Default().threads, 1);
  env.Set("4x");
  EXPECT_EQ(ExecContext::Default().threads, 1);
  env.Set("100000");
  EXPECT_EQ(ExecContext::Default().threads, kMaxEnvThreads);
  env.Unset();
  EXPECT_EQ(ExecContext::Default().threads, 1);
}

TEST(ExecContextEnvTest, SharedDefaultsFlowIntoSessionAndServerOptions) {
  ScopedEnv threads("AGGVIEW_TEST_THREADS");
  ScopedEnv batch("AGGVIEW_TEST_BATCH_SIZE");
  threads.Set("3");
  batch.Set("17");
  // One consolidated env surface: ExecDefaults::FromEnv feeds the exec
  // context and the serving layer alike.
  EXPECT_EQ(ExecDefaults::FromEnv().threads, 3);
  EXPECT_EQ(ExecDefaults::FromEnv().batch_size, 17);
  EXPECT_EQ(ServerOptions::Default().threads, 3);
  EXPECT_EQ(ServerOptions::Default().batch_size, 17);
  threads.Unset();
  batch.Unset();
  EXPECT_EQ(ServerOptions::Default().threads, 1);
  EXPECT_EQ(ServerOptions::Default().batch_size, kDefaultBatchSize);
}

/// Ten-row table scanned through small batches, directly at the operator
/// protocol level where the boundary behaviour is observable.
class ScanBatchTest : public ::testing::Test {
 protected:
  ScanBatchTest() : table_(Schema({{"id", DataType::kInt64}})) {
    id_ = cat_.Add("t.id", DataType::kInt64);
    for (int i = 0; i < 10; ++i) table_.AppendUnchecked({Value::Int(i)});
  }

  ColumnCatalog cat_;
  Table table_;
  ColId id_ = -1;
};

TEST_F(ScanBatchTest, ExactMultipleCardinalityHasNoPhantomTailBatch) {
  // 10 rows through capacity-5 batches: exactly 2 batches, and the call
  // that discovers end-of-stream returns false instead of an empty batch.
  RowLayout layout({id_});
  IoAccountant io;
  TableScanOp scan(&table_, layout, {}, layout, &cat_, &io,
                   /*charge_io=*/true);
  OpStats stats;
  scan.set_stats(&stats);
  ASSERT_OK(scan.Open());

  RowBatch batch(5);
  int64_t rows = 0;
  while (true) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    if (!*more) break;
    EXPECT_FALSE(batch.empty()) << "mid-stream batches are never empty";
    rows += batch.size();
  }
  EXPECT_EQ(rows, 10);
  EXPECT_EQ(stats.batches_produced, 2);
  EXPECT_EQ(stats.next_calls, 3);  // two full batches + end-of-stream

  // Past end-of-stream the operator keeps answering false, safely.
  for (int i = 0; i < 3; ++i) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    EXPECT_FALSE(*more);
    EXPECT_TRUE(batch.empty());
  }
  scan.Close();
}

TEST_F(ScanBatchTest, EmptyInputAnswersFalseOnFirstNext) {
  RowLayout layout({id_});
  IoAccountant io;
  TableScanOp scan(&table_, layout,
                   {Cmp(Col(id_), CompareOp::kLt, LitInt(0))}, layout, &cat_,
                   &io, /*charge_io=*/true);
  OpStats stats;
  scan.set_stats(&stats);
  ASSERT_OK(scan.Open());
  RowBatch batch(5);
  auto more = scan.Next(&batch);
  ASSERT_OK(more);
  EXPECT_FALSE(*more);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(stats.batches_produced, 0);
  EXPECT_EQ(stats.rows_produced, 0);
  EXPECT_EQ(stats.input_rows, 10);  // the scan still examined every row
  scan.Close();
}

/// The scan boundary suite re-run on a scan->filter pipeline: a FilterOp over
/// the scan compacts each scan batch in place, so the two operators share the
/// caller's batch. The filter skips batches it empties entirely, so its
/// protocol edges differ from the bare scan's: a fully-filtered tail batch
/// must surface as end-of-stream, never as an empty batch.
class FusedScanBatchTest : public ::testing::Test {
 protected:
  FusedScanBatchTest() : table_(Schema({{"id", DataType::kInt64}})) {
    id_ = cat_.Add("t.id", DataType::kInt64);
    for (int i = 0; i < 10; ++i) table_.AppendUnchecked({Value::Int(i)});
  }

  /// A charged scan of table_ evaluating `scan_filter`, under a FilterOp
  /// evaluating `residual`; `scan_stats` receives the scan's own counters.
  std::unique_ptr<FilterOp> ScanFilter(std::vector<Predicate> scan_filter,
                                       std::vector<Predicate> residual,
                                       OpStats* scan_stats, IoAccountant* io) {
    RowLayout layout({id_});
    auto scan = std::make_unique<TableScanOp>(&table_, layout,
                                              std::move(scan_filter), layout,
                                              &cat_, io, /*charge_io=*/true);
    scan->set_stats(scan_stats);
    return std::make_unique<FilterOp>(std::move(scan), std::move(residual),
                                      &cat_);
  }

  ColumnCatalog cat_;
  Table table_;
  ColId id_ = -1;
};

TEST_F(FusedScanBatchTest, ExactMultipleCardinalityHasNoPhantomTailBatch) {
  // 10 rows through capacity-5 batches; the residual keeps ids 0..4, so the
  // second scan batch is filtered away whole. The filter emits exactly one
  // batch and the call that drains the scan returns false, not an empty
  // batch.
  IoAccountant io;
  OpStats scan_stats;
  auto filter_op = ScanFilter({}, {Cmp(Col(id_), CompareOp::kLt, LitInt(5))},
                              &scan_stats, &io);
  FilterOp& filter = *filter_op;
  OpStats stats;
  filter.set_stats(&stats);
  ASSERT_OK(filter.Open());

  RowBatch batch(5);
  int64_t rows = 0;
  while (true) {
    auto more = filter.Next(&batch);
    ASSERT_OK(more);
    if (!*more) break;
    EXPECT_FALSE(batch.empty()) << "mid-stream batches are never empty";
    rows += batch.size();
  }
  EXPECT_EQ(rows, 5);
  EXPECT_EQ(stats.batches_produced, 1);
  EXPECT_EQ(stats.next_calls, 2);  // one full batch + end-of-stream
  EXPECT_EQ(stats.input_rows, 10);
  EXPECT_EQ(scan_stats.batches_produced, 2);
  EXPECT_EQ(scan_stats.next_calls, 3);

  // Past end-of-stream the pipeline keeps answering false, safely.
  for (int i = 0; i < 3; ++i) {
    auto more = filter.Next(&batch);
    ASSERT_OK(more);
    EXPECT_FALSE(*more);
    EXPECT_TRUE(batch.empty());
  }
  filter.Close();
}

TEST_F(FusedScanBatchTest, EmptyInputAnswersFalseOnFirstNext) {
  // The scan filter passes ids 5..9 and the residual rejects all of them.
  IoAccountant io;
  OpStats scan_stats;
  auto filter_op = ScanFilter({Cmp(Col(id_), CompareOp::kGe, LitInt(5))},
                              {Cmp(Col(id_), CompareOp::kLt, LitInt(5))},
                              &scan_stats, &io);
  FilterOp& filter = *filter_op;
  OpStats stats;
  filter.set_stats(&stats);
  ASSERT_OK(filter.Open());
  RowBatch batch(5);
  auto more = filter.Next(&batch);
  ASSERT_OK(more);
  EXPECT_FALSE(*more);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(stats.batches_produced, 0);
  EXPECT_EQ(stats.rows_produced, 0);
  EXPECT_EQ(stats.input_rows, 5);  // every scan survivor reached the filter
  EXPECT_EQ(scan_stats.input_rows, 10);
  EXPECT_EQ(scan_stats.rows_produced, 5);
  EXPECT_EQ(scan_stats.pages_charged, table_.page_count());
  filter.Close();
}

/// End-to-end: the same optimized plan executed at many batch sizes, serial
/// and on 8 workers, must fingerprint identically, including sizes that
/// divide the cardinalities involved (boundary-aligned) and sizes that do
/// not.
class BatchSizeInvarianceTest : public ::testing::Test {
 protected:
  BatchSizeInvarianceTest() : db_(MakeEmpDept()) {}

  void CheckInvariant(const std::string& sql) {
    auto query = ParseAndBind(*db_.catalog, sql);
    ASSERT_OK(query);
    auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
    ASSERT_OK(optimized);

    auto reference =
        ExecutePlan(optimized->plan, optimized->query,
                    ExecContext{}.WithBatchSize(kDefaultBatchSize));
    ASSERT_OK(reference);
    for (int threads : {1, 8}) {
      for (int batch_size : {1, 2, 3, 7, 64, 1024, 4096}) {
        auto rerun = ExecutePlan(
            optimized->plan, optimized->query,
            ExecContext{}.WithThreads(threads).WithBatchSize(batch_size));
        ASSERT_OK(rerun);
        EXPECT_EQ(rerun->Fingerprint(), reference->Fingerprint())
            << "threads=" << threads << " batch_size=" << batch_size
            << " changed the result of:\n"
            << sql;
      }
    }
  }

  EmpDeptFixture db_;
};

TEST_F(BatchSizeInvarianceTest, AggregateViewQuery) {
  CheckInvariant(Example1Sql());
}

TEST_F(BatchSizeInvarianceTest, InvariantGroupingQuery) {
  CheckInvariant(Example2Sql());
}

TEST_F(BatchSizeInvarianceTest, ScalarAggregateOverEmptyInput) {
  // The one synthesized row of a scalar aggregate over zero input must
  // appear exactly once at every batch size.
  CheckInvariant("select count(*), sum(e.sal) from emp e where e.sal < 0");
}

TEST_F(BatchSizeInvarianceTest, GroupByWithHaving) {
  // HAVING runs over HashAggregateOp's output row.
  CheckInvariant(
      "select e.dno, count(*), avg(e.sal) from emp e "
      "group by e.dno having count(*) > 2");
}

TEST_F(BatchSizeInvarianceTest, FilterHeavyConjunction) {
  CheckInvariant(
      "select e.eno, e.sal from emp e "
      "where e.sal > 100 and e.age > 20 and e.age < 60 and e.dno > 0");
}

/// End-to-end against an independent reference: the aggregate-view plan,
/// with every predicate evaluated in bound form, at each thread count and
/// batch size must fingerprint like the traditional optimizer's plan (a
/// different operator tree over the same data) run serially at the default
/// batch size.
class CompiledBackendTest : public ::testing::Test {
 protected:
  CompiledBackendTest() : db_(MakeEmpDept()) {}

  void CheckAgainstTraditional(const std::string& sql) {
    auto query = ParseAndBind(*db_.catalog, sql);
    ASSERT_OK(query);
    auto traditional = OptimizeTraditional(*query);
    ASSERT_OK(traditional);
    auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
    ASSERT_OK(optimized);

    auto reference = ExecutePlan(traditional->plan, traditional->query,
                                 ExecContext{});
    ASSERT_OK(reference);
    for (int threads : {1, 8}) {
      for (int batch_size : {1, 2, 3, 1024}) {
        auto rerun = ExecutePlan(
            optimized->plan, optimized->query,
            ExecContext{}.WithThreads(threads).WithBatchSize(batch_size));
        ASSERT_OK(rerun);
        EXPECT_EQ(rerun->Fingerprint(), reference->Fingerprint())
            << "aggregate-view plan at threads=" << threads
            << " batch_size=" << batch_size
            << " disagrees with the traditional plan on:\n"
            << sql;
      }
    }
  }

  EmpDeptFixture db_;
};

TEST_F(CompiledBackendTest, AggregateViewQuery) {
  CheckAgainstTraditional(Example1Sql());
}

TEST_F(CompiledBackendTest, InvariantGroupingQuery) {
  CheckAgainstTraditional(Example2Sql());
}

TEST_F(CompiledBackendTest, ScalarAggregateOverEmptyInput) {
  // The one synthesized row of a scalar aggregate over zero input must
  // appear exactly once under either optimizer's plan.
  CheckAgainstTraditional(
      "select count(*), sum(e.sal) from emp e where e.sal < 0");
}

/// NULL grouping keys placed so they straddle batch boundaries, plus a
/// grouping column whose runtime values mix Int and Real: HashAggregateOp's
/// INT64 lane must group NULLs together and must migrate to the generic
/// table on the first non-integer key without splitting the 1 == 1.0 group.
/// The expected groups are literal answers.
class GroupingEdgeTest : public ::testing::Test {
 protected:
  GroupingEdgeTest() {
    auto tables = CreateEmpDeptSchema(&catalog_);
    EXPECT_OK(tables);
    tables_ = *tables;

    auto emp = std::make_shared<Table>(catalog_.table(tables_.emp).schema);
    for (int i = 0; i < 18; ++i) {
      // Every third dno NULL; every seventh a Real that equals an Int key.
      Value dno = (i % 3 == 2) ? Value::Null()
                 : (i % 7 == 0) ? Value::Real(1.0 + i % 2)
                                : Value::Int(1 + i % 2);
      emp->AppendUnchecked({Value::Int(i), std::move(dno),
                            Value::Real(100.0 * i), Value::Int(25 + i % 10)});
    }
    catalog_.mutable_table(tables_.emp).stats = ComputeStats(*emp);
    catalog_.mutable_table(tables_.emp).data = emp;
  }

  Catalog catalog_;
  EmpDeptTables tables_;
};

TEST_F(GroupingEdgeTest, NullAndMixedTypeKeysFormLiteralGroups) {
  auto query = ParseAndBind(
      catalog_, "select e.dno, count(*), sum(e.sal) from emp e "
                "group by e.dno");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  // dno 1 (Real(1.0) at i = 0): i = 0, 4, 6, 10, 12, 16; dno 2 (Real(2.0)
  // at i = 7): i = 1, 3, 7, 9, 13, 15; NULL: i = 2, 5, 8, 11, 14, 17. The
  // fingerprint renders Int(1) and Real(1.0) alike, so either may key the
  // group; a split group or a second NULL group changes the string.
  const std::string want = "\x01NULL|6|5700\n1|6|4800\n2|6|4800\n";
  for (int threads : {1, 8}) {
    for (int batch_size : {1, 2, 3, 1024}) {
      // Two-row morsels let several workers claim a share of the 18 rows,
      // so partials can end up in different lanes (a worker that met a
      // Real key migrated, one that did not stayed on the INT64 lane).
      // Whether they do depends on scheduling;
      // OperatorsTest.ParallelAggregateMergesPartialsAcrossLanes pins that
      // merge deterministically.
      for (int64_t morsel_rows : {kDefaultMorselRows, int64_t{2}}) {
        auto result = ExecutePlan(optimized->plan, optimized->query,
                                  ExecContext{}
                                      .WithThreads(threads)
                                      .WithBatchSize(batch_size)
                                      .WithMorselRows(morsel_rows));
        ASSERT_OK(result);
        EXPECT_EQ(result->Fingerprint(), want)
            << "threads=" << threads << " batch_size=" << batch_size
            << " morsel_rows=" << morsel_rows;
      }
    }
  }
}

/// NULL join keys placed so they straddle batch boundaries at small batch
/// sizes: the skip-NULL-key logic runs at the boundary between pulling a new
/// probe batch and finishing the old one, where an off-by-one would either
/// drop a valid row or let NULL = NULL match.
class NullKeysAcrossBatchesTest : public ::testing::Test {
 protected:
  NullKeysAcrossBatchesTest() {
    auto tables = CreateEmpDeptSchema(&catalog_);
    EXPECT_OK(tables);
    tables_ = *tables;

    auto dept = std::make_shared<Table>(catalog_.table(tables_.dept).schema);
    dept->AppendUnchecked({Value::Int(1), Value::Real(100000.0)});
    dept->AppendUnchecked({Value::Null(), Value::Real(200000.0)});
    dept->AppendUnchecked({Value::Int(2), Value::Real(300000.0)});
    catalog_.mutable_table(tables_.dept).stats = ComputeStats(*dept);
    catalog_.mutable_table(tables_.dept).data = dept;

    // Every third employee has a NULL dno, so at batch sizes 2 and 3 the
    // NULL-keyed rows land at every position within a probe batch.
    auto emp = std::make_shared<Table>(catalog_.table(tables_.emp).schema);
    for (int i = 0; i < 18; ++i) {
      Value dno = (i % 3 == 2) ? Value::Null() : Value::Int(1 + i % 2);
      emp->AppendUnchecked({Value::Int(i), std::move(dno),
                            Value::Real(100.0 * i), Value::Int(25 + i % 10)});
    }
    catalog_.mutable_table(tables_.emp).stats = ComputeStats(*emp);
    catalog_.mutable_table(tables_.emp).data = emp;
  }

  Catalog catalog_;
  EmpDeptTables tables_;
};

TEST_F(NullKeysAcrossBatchesTest, AllJoinAlgorithmsAtAllBatchSizes) {
  Query q(&catalog_);
  int d = q.AddRangeVar(tables_.dept, "d");
  int e = q.AddRangeVar(tables_.emp, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  q.select_list() = {d_dno, eno};
  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, eno};

  // 12 non-NULL-keyed employees, each matching exactly one department.
  std::string reference;
  for (JoinAlgo algo :
       {JoinAlgo::kHash, JoinAlgo::kSortMerge, JoinAlgo::kBlockNestedLoop}) {
    PlanPtr join = b.Join(algo, b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                          {EqCols(d_dno, e_dno)}, needed);
    PlanPtr plan = b.Project(join, q.select_list());
    for (int batch_size : {1, 2, 3, 1024}) {
      auto result = ExecutePlan(plan, q,
                                ExecContext{}.WithBatchSize(batch_size));
      ASSERT_OK(result);
      EXPECT_EQ(result->rows.size(), 12u)
          << JoinAlgoName(algo) << " batch_size=" << batch_size;
      for (const Row& row : result->rows) {
        EXPECT_FALSE(row[0].is_null()) << JoinAlgoName(algo);
      }
      if (reference.empty()) {
        reference = result->Fingerprint();
      } else {
        EXPECT_EQ(result->Fingerprint(), reference)
            << JoinAlgoName(algo) << " batch_size=" << batch_size;
      }
    }
  }
}

TEST_F(NullKeysAcrossBatchesTest, OuterJoinPadsNullKeyedRowsAtEverySize) {
  Query q(&catalog_);
  int e = q.AddRangeVar(tables_.emp, "e");
  int d = q.AddRangeVar(tables_.dept, "d");
  q.base_rels() = {e, d};
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  ColId d_dno = q.range_var(d).columns[0];
  ColId budget = q.range_var(d).columns[1];
  q.select_list() = {eno, budget};
  PlanBuilder b(q);
  std::set<ColId> needed = {e_dno, eno, d_dno, budget};

  PlanPtr loj = b.LeftOuterJoin(b.Scan(e, {}, needed), b.Scan(d, {}, needed),
                                {EqCols(e_dno, d_dno)}, needed);
  PlanPtr plan = b.Project(loj, q.select_list());
  for (int batch_size : {1, 2, 3, 1024}) {
    auto result = ExecutePlan(plan, q,
                              ExecContext{}.WithBatchSize(batch_size));
    ASSERT_OK(result);
    // All 18 employees survive: 12 matched, 6 NULL-dno rows padded.
    ASSERT_EQ(result->rows.size(), 18u) << "batch_size=" << batch_size;
    int padded = 0;
    for (const Row& row : result->rows) {
      if (row[1].is_null()) ++padded;
    }
    EXPECT_EQ(padded, 6) << "batch_size=" << batch_size;
  }
}

/// A single group whose rows straddle many batch boundaries: the aggregate
/// must fold every input batch into the same accumulator rather than start a
/// fresh group per batch.
TEST(GroupAcrossBatchesTest, GroupSpanningManyBatchesAggregatesOnce) {
  Catalog catalog;
  auto tables = CreateEmpDeptSchema(&catalog);
  ASSERT_OK(tables);

  auto dept = std::make_shared<Table>(catalog.table(tables->dept).schema);
  dept->AppendUnchecked({Value::Int(1), Value::Real(100000.0)});
  catalog.mutable_table(tables->dept).stats = ComputeStats(*dept);
  catalog.mutable_table(tables->dept).data = dept;

  // One department, 100 employees with salaries 0..99: any batch size below
  // 100 splits the group across input batches.
  auto emp = std::make_shared<Table>(catalog.table(tables->emp).schema);
  for (int i = 0; i < 100; ++i) {
    emp->AppendUnchecked({Value::Int(i), Value::Int(1), Value::Real(i),
                          Value::Int(30)});
  }
  catalog.mutable_table(tables->emp).stats = ComputeStats(*emp);
  catalog.mutable_table(tables->emp).data = emp;

  auto query = ParseAndBind(
      catalog, "select e.dno, count(*), sum(e.sal), avg(e.sal) "
               "from emp e group by e.dno");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  for (int batch_size : {1, 3, 25, 100, 1024}) {
    auto result = ExecutePlan(optimized->plan, optimized->query,
                              ExecContext{}.WithBatchSize(batch_size));
    ASSERT_OK(result);
    ASSERT_EQ(result->rows.size(), 1u) << "batch_size=" << batch_size;
    const Row& row = result->rows[0];
    EXPECT_EQ(row[0].AsInt(), 1);
    EXPECT_EQ(row[1].AsInt(), 100);
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), 4950.0);
    EXPECT_DOUBLE_EQ(row[3].AsDouble(), 49.5);
  }
}

}  // namespace
}  // namespace aggview
