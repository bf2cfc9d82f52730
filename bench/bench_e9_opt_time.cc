// Experiment E9 — optimization latency (Section 5.2: the greedy
// conservative heuristic "results in very moderate increase in search
// space"; Section 5.3's restrictions keep pull-up affordable).
//
// google-benchmark microbenchmarks of the optimizer itself (no execution):
// Example 1, the two-view query, and a view + n-relation chain, under the
// traditional and extended configurations.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

const EmpDeptDb& Db() {
  static EmpDeptDb* db = [] {
    EmpDeptOptions data;
    data.num_employees = 20'000;
    data.num_departments = 500;
    return new EmpDeptDb(MakeEmpDeptDb(data));
  }();
  return *db;
}

/// Every benchmark runs kRepetitions times and reports the repetitions' min
/// and median (MinAndMedian; the upper median, google-benchmark's own median
/// at this odd count); the single runs are not displayed.
constexpr int kRepetitions = 5;
void MinAndMedianOfRepetitions(benchmark::internal::Benchmark* b) {
  b->Repetitions(kRepetitions)
      ->ComputeStatistics("min", MinOf)
      ->ComputeStatistics("upper_median", MedianOf)
      ->DisplayAggregatesOnly();
}

std::string ChainQuery(int n_base) {
  std::string sql = R"sql(
create view v (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, v)sql";
  for (int i = 0; i < n_base; ++i) sql += ", dept d" + std::to_string(i);
  sql += "\nwhere e1.dno = v.dno and e1.sal > v.asal";
  for (int i = 0; i < n_base; ++i) {
    sql += " and e1.dno = d" + std::to_string(i) + ".dno";
  }
  return sql;
}

void OptimizeOnce(const std::string& sql, const OptimizerOptions& options) {
  auto query = ParseAndBind(*Db().catalog, sql);
  CheckOk(query.status(), "parsing and binding the query");
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing the query");
  benchmark::DoNotOptimize(optimized->plan->cost);
}

void BM_Example1_Traditional(benchmark::State& state) {
  std::string sql = R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal)sql";
  for (auto _ : state) OptimizeOnce(sql, TraditionalOptions());
}
BENCHMARK(BM_Example1_Traditional)
    ->Apply(MinAndMedianOfRepetitions);

void BM_Example1_Extended(benchmark::State& state) {
  std::string sql = R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal)sql";
  for (auto _ : state) OptimizeOnce(sql, OptimizerOptions{});
}
BENCHMARK(BM_Example1_Extended)
    ->Apply(MinAndMedianOfRepetitions);

void BM_Chain_Traditional(benchmark::State& state) {
  std::string sql = ChainQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) OptimizeOnce(sql, TraditionalOptions());
}
BENCHMARK(BM_Chain_Traditional)
    ->Apply(MinAndMedianOfRepetitions)
    ->DenseRange(1, 5);

void BM_Chain_Extended(benchmark::State& state) {
  std::string sql = ChainQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) OptimizeOnce(sql, OptimizerOptions{});
}
BENCHMARK(BM_Chain_Extended)
    ->Apply(MinAndMedianOfRepetitions)
    ->DenseRange(1, 5);

void BM_Chain_UnrestrictedPullUp(benchmark::State& state) {
  std::string sql = ChainQuery(static_cast<int>(state.range(0)));
  OptimizerOptions open;
  open.max_pullup = 3;
  open.require_shared_predicate = false;
  for (auto _ : state) OptimizeOnce(sql, open);
}
BENCHMARK(BM_Chain_UnrestrictedPullUp)
    ->Apply(MinAndMedianOfRepetitions)
    ->DenseRange(1, 4);

}  // namespace
}  // namespace bench
}  // namespace aggview

BENCHMARK_MAIN();
