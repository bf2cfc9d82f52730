// Experiment E12 — paranoid-mode overhead. The semantic analyzer runs at
// every DP-table insertion and every transformation certificate is re-proved
// when OptimizerOptions::paranoid is on; this measures what that costs on
// top of plain optimization, and what a one-shot AnalyzePlan of the final
// plan costs (the cheap always-on alternative).
#include <benchmark/benchmark.h>

#include "analysis/dataflow.h"
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

std::string TwoViewQuery() {
  return R"sql(
create view a (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
create view c (dno, cnt) as
  select e3.dno, count(*) from emp e3, dept d2
  where e3.dno = d2.dno and d2.budget < 1000000
  group by e3.dno;
select e1.sal
from emp e1, dept d, a, c
where e1.dno = d.dno and e1.dno = a.dno and e1.dno = c.dno
  and e1.sal > a.asal and c.cnt > 2)sql";
}

void OptimizeOnce(const std::string& sql, const OptimizerOptions& options,
                  benchmark::State& state) {
  auto query = ParseAndBind(*Db().catalog, sql);
  CheckOk(query.status(), "binding the two-view query");
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing the two-view query");
  benchmark::DoNotOptimize(optimized->plan->cost);
  state.counters["plans_checked"] = static_cast<double>(
      optimized->counters.plans_checked);
  state.counters["certs"] = static_cast<double>(
      optimized->counters.certificates_verified);
}

void BM_TwoViews_Plain(benchmark::State& state) {
  OptimizerOptions options;
  options.paranoid = false;
  for (auto _ : state) OptimizeOnce(TwoViewQuery(), options, state);
}
BENCHMARK(BM_TwoViews_Plain)
    ->Apply(MinAndMedianOfRepetitions);

// Dataflow-analysis axis: paranoid mode with the dataflow verifier pass on
// (range(1)) vs off (range(0)). The delta divided by `plans_checked` is the
// abstract interpretation's cost per DP-table insertion. Run with
// --benchmark_format=json for machine-readable output.
void BM_TwoViews_Paranoid(benchmark::State& state) {
  OptimizerOptions options;
  options.paranoid = true;
  options.paranoid_dataflow = state.range(0) != 0;
  for (auto _ : state) OptimizeOnce(TwoViewQuery(), options, state);
}
BENCHMARK(BM_TwoViews_Paranoid)
    ->Apply(MinAndMedianOfRepetitions)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("dataflow");

void BM_TwoViews_FinalAnalyzeOnly(benchmark::State& state) {
  // Optimize once, measure only the one-shot analysis of the winning plan —
  // with and without the dataflow pass (same axis as above).
  auto query = ParseAndBind(*Db().catalog, TwoViewQuery());
  CheckOk(query.status(), "binding the two-view query");
  OptimizerOptions options;
  options.paranoid = false;
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing the two-view query");
  AnalysisOptions analysis;
  analysis.dataflow = state.range(0) != 0;
  for (auto _ : state) {
    Status st = AnalyzePlan(optimized->plan, optimized->query, analysis);
    CheckOk(st, "analyzing the two-view plan");
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_TwoViews_FinalAnalyzeOnly)
    ->Apply(MinAndMedianOfRepetitions)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("dataflow");

void BM_DataflowAnalysisOnly(benchmark::State& state) {
  // The raw abstract interpretation (facts only, no obligations) of the
  // winning two-view plan.
  auto query = ParseAndBind(*Db().catalog, TwoViewQuery());
  CheckOk(query.status(), "binding the two-view query");
  OptimizerOptions options;
  options.paranoid = false;
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing the two-view query");
  for (auto _ : state) {
    DataflowAnalysis flow =
        DataflowAnalysis::Analyze(optimized->plan, optimized->query);
    benchmark::DoNotOptimize(flow.Find(optimized->plan.get()));
  }
}
BENCHMARK(BM_DataflowAnalysisOnly)
    ->Apply(MinAndMedianOfRepetitions);

void BM_Fuzz10_Plain(benchmark::State& state) {
  for (auto _ : state) {
    FuzzOptions options;
    options.seed = 12345;
    options.num_queries = 10;
    options.num_employees = 200;
    options.num_departments = 8;
    options.paranoid = false;
    auto report = RunDifferentialFuzz(options);
    CheckOk(report.status(), "fuzzing 10 queries (plain)");
    benchmark::DoNotOptimize(report->plans_compared);
  }
}
BENCHMARK(BM_Fuzz10_Plain)
    ->Apply(MinAndMedianOfRepetitions)
    ->Unit(benchmark::kMillisecond);

void BM_Fuzz10_Paranoid(benchmark::State& state) {
  for (auto _ : state) {
    FuzzOptions options;
    options.seed = 12345;
    options.num_queries = 10;
    options.num_employees = 200;
    options.num_departments = 8;
    options.paranoid = true;
    auto report = RunDifferentialFuzz(options);
    CheckOk(report.status(), "fuzzing 10 queries (paranoid)");
    benchmark::DoNotOptimize(report->plans_compared);
  }
}
BENCHMARK(BM_Fuzz10_Paranoid)
    ->Apply(MinAndMedianOfRepetitions)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace aggview

BENCHMARK_MAIN();
