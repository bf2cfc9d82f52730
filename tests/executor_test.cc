#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/plan.h"
#include "test_util.h"

namespace aggview {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : fixture_(MakeEmpDept(Options())), q_(fixture_.catalog.get()) {
    e_ = q_.AddRangeVar(fixture_.tables.emp, "e");
    d_ = q_.AddRangeVar(fixture_.tables.dept, "d");
    q_.base_rels() = {e_, d_};
    eno_ = q_.range_var(e_).columns[0];
    e_dno_ = q_.range_var(e_).columns[1];
    sal_ = q_.range_var(e_).columns[2];
    age_ = q_.range_var(e_).columns[3];
    d_dno_ = q_.range_var(d_).columns[0];
    budget_ = q_.range_var(d_).columns[1];
    q_.select_list() = {eno_};
  }

  static EmpDeptOptions Options() {
    EmpDeptOptions o;
    o.num_employees = 500;
    o.num_departments = 20;
    return o;
  }

  EmpDeptFixture fixture_;
  Query q_;
  int e_, d_;
  ColId eno_, e_dno_, sal_, age_, d_dno_, budget_;
};

TEST_F(ExecutorTest, ScanPlanExecutes) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {eno_, sal_});
  IoAccountant io;
  auto result = ExecutePlan(scan, q_, ExecContext::Default().WithIo(&io));
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 500u);
  EXPECT_GT(io.reads(), 0);
}

TEST_F(ExecutorTest, FilteredScanMatchesPredicate) {
  PlanBuilder b(q_);
  PlanPtr scan =
      b.Scan(e_, {Cmp(Col(age_), CompareOp::kLt, LitInt(22))}, {eno_, age_});
  auto result = ExecutePlan(scan, q_);
  ASSERT_OK(result);
  for (const Row& row : result->rows) {
    EXPECT_LT(row[1].AsInt(), 22);
  }
  EXPECT_LT(result->rows.size(), 100u);  // ~5% young fraction
}

TEST_F(ExecutorTest, JoinAlgorithmsAgree) {
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, e_dno_, d_dno_, budget_};
  PlanPtr emp = b.Scan(e_, {}, needed);
  PlanPtr dept = b.Scan(d_, {}, needed);
  std::vector<Predicate> join = {EqCols(e_dno_, d_dno_)};

  std::string fp;
  for (JoinAlgo algo :
       {JoinAlgo::kBlockNestedLoop, JoinAlgo::kHash}) {
    PlanPtr plan = b.Join(algo, emp, dept, join, needed);
    auto result = ExecutePlan(plan, q_);
    ASSERT_OK(result);
    EXPECT_EQ(result->rows.size(), 500u);  // FK join
    if (fp.empty()) {
      fp = result->Fingerprint();
    } else {
      EXPECT_EQ(result->Fingerprint(), fp) << JoinAlgoName(algo);
    }
  }
}

TEST_F(ExecutorTest, HashJoinWithoutEquiJoinKeyFailsNamingTheJoin) {
  // A hand-built hash join whose conjuncts give no key: the equality's
  // columns are both on the left, the comparison across inputs is a range.
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, e_dno_, d_dno_};
  PlanPtr plan = b.Join(JoinAlgo::kHash, b.Scan(e_, {}, needed),
                        b.Scan(d_, {}, needed),
                        {EqCols(eno_, e_dno_),
                         Cmp(Col(e_dno_), CompareOp::kLt, Col(d_dno_))},
                        needed);
  auto result = ExecutePlan(plan, q_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("hash join"), std::string::npos)
      << result.status().ToString();
}

TEST_F(ExecutorTest, GroupByPlanComputesAverages) {
  PlanBuilder b(q_);
  ColId avg_out = q_.columns().Add("avg(e.sal)", DataType::kDouble);
  GroupBySpec gb;
  gb.grouping = {e_dno_};
  gb.aggregates = {{AggKind::kAvg, {sal_}, avg_out}};
  PlanPtr plan = b.GroupBy(b.Scan(e_, {}, {e_dno_, sal_}), gb,
                           {e_dno_, avg_out});
  auto result = ExecutePlan(plan, q_);
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 20u);
  for (const Row& row : result->rows) {
    EXPECT_GT(row[1].AsDouble(), 20'000.0 - 1);
    EXPECT_LT(row[1].AsDouble(), 200'000.0 + 1);
  }
}

TEST_F(ExecutorTest, MeasuredIoMatchesEstimateForScan) {
  PlanBuilder b(q_);
  PlanPtr scan = b.Scan(e_, {}, {eno_});
  IoAccountant io;
  ASSERT_OK(ExecutePlan(scan, q_, ExecContext::Default().WithIo(&io)));
  EXPECT_DOUBLE_EQ(static_cast<double>(io.total()), scan->cost);
}

TEST_F(ExecutorTest, MeasuredIoMatchesEstimateForFkHashJoin) {
  // With exact stats the FK-join estimate is exact, so measured IO must
  // equal estimated IO.
  PlanBuilder b(q_);
  std::set<ColId> needed = {eno_, e_dno_, d_dno_};
  PlanPtr plan = b.Join(JoinAlgo::kHash, b.Scan(e_, {}, needed),
                        b.Scan(d_, {}, needed), {EqCols(e_dno_, d_dno_)},
                        needed);
  IoAccountant io;
  ASSERT_OK(ExecutePlan(plan, q_, ExecContext::Default().WithIo(&io)));
  EXPECT_NEAR(static_cast<double>(io.total()), plan->cost, 1.0);
}

TEST_F(ExecutorTest, ParallelRunChargesSameIoAsSerial) {
  // Deferred parallel charging: a hash join + aggregate pipeline charges the
  // same pages whether the build/scan/aggregate run on 1 worker or 8. Every
  // page formula is applied once, on merged totals, at the serial points.
  PlanBuilder b(q_);
  ColId avg_out = q_.columns().Add("avg(e.sal)", DataType::kDouble);
  std::set<ColId> needed = {e_dno_, sal_, d_dno_, budget_, avg_out};
  PlanPtr join = b.Join(JoinAlgo::kHash, b.Scan(e_, {}, needed),
                        b.Scan(d_, {}, needed), {EqCols(e_dno_, d_dno_)},
                        needed);
  GroupBySpec gb;
  gb.grouping = {e_dno_};
  gb.aggregates = {{AggKind::kAvg, {sal_}, avg_out}};
  PlanPtr plan = b.GroupBy(join, gb, {e_dno_, avg_out});

  IoAccountant serial_io;
  auto serial = ExecutePlan(plan, q_, ExecContext{}.WithIo(&serial_io));
  ASSERT_OK(serial);
  for (int threads : {2, 8}) {
    IoAccountant parallel_io;
    auto parallel = ExecutePlan(
        plan, q_,
        ExecContext{}.WithThreads(threads).WithMorselRows(64).WithIo(
            &parallel_io));
    ASSERT_OK(parallel);
    EXPECT_EQ(parallel->Fingerprint(), serial->Fingerprint())
        << "threads=" << threads;
    EXPECT_EQ(parallel_io.total(), serial_io.total()) << "threads=" << threads;
    EXPECT_EQ(parallel_io.reads(), serial_io.reads()) << "threads=" << threads;
    EXPECT_EQ(parallel_io.writes(), serial_io.writes())
        << "threads=" << threads;
  }
}

TEST_F(ExecutorTest, FingerprintOrderInsensitive) {
  QueryResult a, b;
  a.rows = {{Value::Int(1)}, {Value::Int(2)}};
  b.rows = {{Value::Int(2)}, {Value::Int(1)}};
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  QueryResult c;
  c.rows = {{Value::Int(1)}, {Value::Int(3)}};
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

TEST_F(ExecutorTest, FingerprintToleratesFloatNoise) {
  QueryResult a, b;
  a.rows = {{Value::Real(0.1 + 0.2)}};
  b.rows = {{Value::Real(0.3)}};
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST_F(ExecutorTest, MissingDataIsAnExecutionError) {
  Catalog empty_catalog;
  auto tables = CreateEmpDeptSchema(&empty_catalog);
  ASSERT_OK(tables);
  Query q(&empty_catalog);
  int e = q.AddRangeVar(tables->emp, "e");
  q.base_rels() = {e};
  q.select_list() = {q.range_var(e).columns[0]};
  PlanBuilder b(q);
  PlanPtr scan = b.Scan(e, {}, {q.range_var(e).columns[0]});
  auto result = ExecutePlan(scan, q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace aggview
