#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/dataflow.h"
#include "analysis/fuzzer.h"
#include "common/random.h"
#include "server/server.h"
#include "test_util.h"
#include "view/matview.h"

namespace aggview {
namespace {

/// bench_e12's BM_Fuzz10_Paranoid options under base seed `seed`.
FuzzOptions Fuzz10Options(uint64_t seed) {
  FuzzOptions options;
  options.seed = seed;
  options.num_queries = 10;
  options.num_employees = 200;
  options.num_departments = 8;
  options.paranoid = true;
  return options;
}

/// FuzzMatView's options: the materialized-view leg on, geometry sweeps off.
FuzzOptions MatViewOptions() {
  FuzzOptions options;
  options.seed = 11;
  options.num_queries = 30;
  options.num_employees = 120;
  options.num_departments = 6;
  options.materialize_views = true;
  // Keep the run cheap: the matview leg is the subject here, not the
  // batch/thread geometry sweeps.
  options.cross_batch_sizes.clear();
  options.cross_thread_counts.clear();
  return options;
}

/// Differential fuzzing: seeded random aggregate-view queries, every one
/// optimized by the traditional, greedy conservative, and extended two-phase
/// optimizers (plus a deep pull-up ablation), every plan analyzed and
/// executed, all result multisets cross-checked against the traditional
/// plan's. Sharded so ctest runs the shards in parallel; 10 shards x 52
/// queries = 520 random queries per suite run.
class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllOptimizersAgreeUnderParanoidAnalysis) {
  FuzzOptions options = DifferentialFuzzShard(GetParam());
  auto report = RunDifferentialFuzz(options);
  ASSERT_OK(report);
  EXPECT_EQ(report->queries_run, options.num_queries);
  // 4 configurations per query, each executed and compared.
  EXPECT_EQ(report->plans_compared, options.num_queries * 4);
  // Every reference plan re-executed at batch sizes 1, 2, and 1024 with a
  // byte-identical fingerprint: the batch engine is invisible to semantics.
  EXPECT_EQ(report->batch_size_checks,
            options.num_queries *
                static_cast<int>(options.cross_batch_sizes.size()));
  // ... and at every (threads x batch size) combination of {1, 2, 8} x
  // {1, 1024}: morsel-driven parallelism is invisible to semantics too —
  // zero fingerprint mismatches across thread counts.
  EXPECT_EQ(report->thread_checks,
            options.num_queries *
                static_cast<int>(options.cross_thread_counts.size() *
                                 options.cross_thread_batch_sizes.size()));
  // Paranoid mode actually fired: the analyzer ran at DP insertions and
  // transformation certificates were re-proved.
  EXPECT_GT(report->plans_checked, 0);
  EXPECT_GT(report->certificates_verified, 0);
  // Runtime dataflow self-verification actually fired: every execution ran
  // with the verifier installed and checked batches/cardinalities against
  // the statically derived facts — with zero violations (a violation is an
  // execution error and would have failed the run above).
  EXPECT_GT(report->dataflow_checks, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz, ::testing::Range(0, 10));

/// The generator itself is deterministic: same seed, same SQL.
TEST(FuzzGenerator, DeterministicInSeed) {
  Rng a(99), b(99), c(100);
  std::string qa, qb, qc;
  for (int i = 0; i < 20; ++i) {
    qa += GenerateAggViewSql(&a);
    qb += GenerateAggViewSql(&b);
    qc += GenerateAggViewSql(&c);
  }
  EXPECT_EQ(qa, qb);
  EXPECT_NE(qa, qc);
}

/// Generated queries exercise the aggregate-view space: across a modest
/// sample some queries must carry views and some a top group-by.
TEST(FuzzGenerator, CoversViewsAndTopAggregates) {
  Rng rng(7);
  int with_views = 0, with_group_by = 0;
  for (int i = 0; i < 50; ++i) {
    std::string sql = GenerateAggViewSql(&rng);
    if (sql.find("create view") != std::string::npos) ++with_views;
    if (sql.rfind("group by e1.dno") != std::string::npos ||
        sql.find("count(*)") != std::string::npos) {
      ++with_group_by;
    }
  }
  EXPECT_GT(with_views, 10);
  EXPECT_GT(with_group_by, 10);
}

/// Materialized-view fuzzing: the generated inline view definitions are
/// re-issued as CREATE MATERIALIZED VIEW, the rewriter must answer the query
/// from the backing tables byte-identically, and the same view-backed plan
/// must still match a base re-execution after a random insert+delete delta
/// plus REFRESH of whatever went stale.
TEST(FuzzMatView, ViewAnsweringAndMaintenanceAgreeWithBasePlans) {
  FuzzOptions options = MatViewOptions();
  auto report = RunDifferentialFuzz(options);
  ASSERT_OK(report);
  EXPECT_EQ(report->queries_run, options.num_queries);
  // Across 30 queries some views materialize and answer, some delta cycles
  // complete (some maintaining an emp ⋈ dept view), and some definitions
  // (HAVING, MEDIAN) are rejected by design.
  EXPECT_GT(report->matview_rewrite_checks, 0);
  EXPECT_GT(report->matview_delta_checks, 0);
  EXPECT_GT(report->matview_join_views_maintained, 0);
  EXPECT_GT(report->matview_skips, 0);
}

/// The AGGVIEW_FUZZ_MATVIEW environment knob turns the same leg on without
/// touching FuzzOptions (for CI sweeps over an unmodified binary).
TEST(FuzzMatView, EnvKnobEnablesMaterialization) {
  FuzzOptions options;
  options.seed = 11;
  options.num_queries = 8;
  options.num_employees = 80;
  options.num_departments = 5;
  options.cross_batch_sizes.clear();
  options.cross_thread_counts.clear();

  ASSERT_EQ(setenv("AGGVIEW_FUZZ_MATVIEW", "1", /*overwrite=*/1), 0);
  auto report = RunDifferentialFuzz(options);
  ASSERT_EQ(unsetenv("AGGVIEW_FUZZ_MATVIEW"), 0);
  ASSERT_OK(report);
  EXPECT_GT(report->matview_rewrite_checks + report->matview_skips, 0);
}

/// Seed replay: AGGVIEW_FUZZ_SEED pins the run to exactly one query — the
/// per-query seed a failure message prints — so a prover-minimized
/// counterexample stays tied to the originating fuzz case.
TEST(FuzzReplay, EnvSeedRunsExactlyOneQuery) {
  FuzzOptions options;
  options.seed = 42;
  options.num_queries = 25;
  options.num_employees = 60;
  options.num_departments = 4;
  // Keep the replay cheap: skip the batch/thread sweeps.
  options.cross_batch_sizes.clear();
  options.cross_thread_counts.clear();

  // The per-query seed of query 3 under base seed 42 (seed * 1000003 + q).
  ASSERT_EQ(setenv("AGGVIEW_FUZZ_SEED", "42000129", /*overwrite=*/1), 0);
  auto replay = RunDifferentialFuzz(options);
  ASSERT_EQ(unsetenv("AGGVIEW_FUZZ_SEED"), 0);
  ASSERT_OK(replay);
  EXPECT_EQ(replay->queries_run, 1);

  // A malformed seed is a loud error, not a silent full sweep.
  ASSERT_EQ(setenv("AGGVIEW_FUZZ_SEED", "not-a-number", /*overwrite=*/1), 0);
  auto bad = RunDifferentialFuzz(options);
  ASSERT_EQ(unsetenv("AGGVIEW_FUZZ_SEED"), 0);
  EXPECT_FALSE(bad.ok());
}

/// Replays of a paranoid fuzz finding (bench_e12's BM_Fuzz10_Paranoid):
/// query 9 of base seed 12345 (AGGVIEW_FUZZ_SEED=12345037044) and query 1 of
/// base seed 23 (AGGVIEW_FUZZ_SEED=23000070) each built, under the 3-level
/// pull-up configuration, a coalesced GroupBy grouping on a MIN output above
/// a BNL join whose estimate escaped the provable bounds ("estimated 925
/// rows outside [0, 512]"). The estimator sets an aggregate output's
/// distinct count to the group count; the bound caps a MIN/MAX output by
/// its argument's distinct bound.
TEST(FuzzBoundsRegression, Seed12345StaysInsideProvableBounds) {
  FuzzOptions options = Fuzz10Options(12345);
  auto report = RunDifferentialFuzz(options);
  ASSERT_OK(report);
  EXPECT_EQ(report->queries_run, options.num_queries);
}

TEST(FuzzBoundsRegression, Seed23StaysInsideProvableBounds) {
  FuzzOptions options = Fuzz10Options(23);
  auto report = RunDifferentialFuzz(options);
  ASSERT_OK(report);
  EXPECT_EQ(report->queries_run, options.num_queries);
}

/// The same shape built directly: grouping on a MIN output whose argument
/// has few distinct values, above a join that multiplies the rows. The
/// estimator alone counts one distinct MIN output per group of the
/// coalescing GroupBy; the PlanBuilder's estimates stay inside the
/// DataflowAnalysis bounds at every node.
TEST(FuzzBoundsRegression, GroupByOnMinOutputAboveJoinStaysInBounds) {
  EmpDeptOptions data;
  data.num_employees = 400;
  data.num_departments = 8;
  EmpDeptFixture fixture = MakeEmpDept(data);
  Query q(fixture.catalog.get());
  int v = q.AddRangeVar(fixture.tables.emp, "v");
  int e = q.AddRangeVar(fixture.tables.emp, "e");
  ColId v_dno = q.range_var(v).columns[1];
  ColId v_sal = q.range_var(v).columns[2];
  ColId e_eno = q.range_var(e).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  PlanBuilder b(q);

  // min(v.sal) per department: at most 8 distinct values.
  GroupBySpec per_dept;
  per_dept.grouping = {v_dno};
  ColId min_sal = q.AddAggregateOutput(AggKind::kMin, {v_sal}, "min(v.sal)",
                                       DataType::kDouble);
  per_dept.aggregates = {{AggKind::kMin, {v_sal}, min_sal}};
  PlanPtr view = b.GroupBy(b.Scan(v, {}, {v_dno, v_sal}), per_dept,
                           {v_dno, min_sal});
  std::set<ColId> needed = {v_dno, min_sal, e_eno, e_dno};
  PlanPtr join = b.Join(JoinAlgo::kBlockNestedLoop, view,
                        b.Scan(e, {}, needed), {}, needed);
  // Coalesce per (department, employee): one group per joined row, so the
  // estimator counts ~3200 distinct MIN outputs where 8 is provable.
  GroupBySpec coalesce;
  coalesce.grouping = {v_dno, e_eno};
  ColId min_min = q.AddAggregateOutput(AggKind::kMin, {min_sal},
                                       "min(min(v.sal))", DataType::kDouble);
  coalesce.aggregates = {{AggKind::kMin, {min_sal}, min_min}};
  PlanPtr coalesced = b.GroupBy(join, coalesce, {e_dno, min_min});
  GroupBySpec top;
  top.grouping = {min_min};
  ColId cnt = q.AddAggregateOutput(AggKind::kCountStar, {}, "count(*)",
                                   DataType::kInt64);
  top.aggregates = {{AggKind::kCountStar, {}, cnt}};
  PlanPtr plan = b.GroupBy(coalesced, top, {min_min, cnt});

  DataflowAnalysis analysis = DataflowAnalysis::Analyze(plan, q);
  const NodeFacts* top_facts = analysis.Find(plan.get());
  ASSERT_NE(top_facts, nullptr);
  EXPECT_LE(top_facts->card.hi, 8.0);
  EXPECT_LE(plan->est.rows, top_facts->card.hi);
  for (const PlanPtr& node : {view, join, coalesced, plan}) {
    const NodeFacts* f = analysis.Find(node.get());
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(EstimateWithinBounds(node->est.rows, f->card))
        << PlanToString(node, q);
  }
  EXPECT_OK(CheckDataflowObligations(plan, q));
}

/// Optimizes every query of the fuzz run `options` describes under every
/// fuzz optimizer configuration — answered from materialized views when
/// `options.materialize_views`, created from the query's inline views the
/// way the fuzzer's matview leg does — and asserts that
/// ClampEstimatesToProvableBounds returns the very plan it is given: no node
/// rebuilt, because PlanBuilder already clamped every estimate. Returns the
/// number of plans checked and of view-backed plans among them.
std::pair<int, int> ExpectClampIsNoOp(const FuzzOptions& options) {
  Catalog catalog;
  auto tables = CreateFuzzDatabase(options, &catalog);
  EXPECT_OK(tables);
  const std::vector<OptimizerOptions> configs = FuzzOptimizerConfigs(false);
  int plans = 0, view_backed = 0;
  for (int q = 0; q < options.num_queries; ++q) {
    Rng rng(FuzzQuerySeed(options, q));
    std::vector<std::string> view_ddls;
    std::string sql = GenerateAggViewSql(&rng, &view_ddls);
    std::vector<std::string> created;
    if (options.materialize_views) {
      // "create view v0 ..." -> "create materialized view mv0 ...";
      // HAVING/MEDIAN definitions are rejected by design.
      const std::string prefix = "create view ";
      for (const std::string& ddl : view_ddls) {
        std::string rest = ddl.substr(prefix.size());
        if (ExecuteMatViewStatement(&catalog,
                                    "create materialized view m" + rest)
                .ok()) {
          created.push_back(std::string("m").append(rest, 0, rest.find(' ')));
        }
      }
    }
    for (const OptimizerOptions& config : configs) {
      auto optimized = PrepareStatement(catalog, sql, options.materialize_views,
                                        /*use_traditional=*/false, config);
      EXPECT_OK(optimized);
      if (!optimized.ok()) continue;
      ++plans;
      if (!optimized->audit.view_rewrites.empty()) ++view_backed;
      EXPECT_EQ(ClampEstimatesToProvableBounds(optimized->plan,
                                               optimized->query),
                optimized->plan)
          << sql << "\n"
          << PlanToString(optimized->plan, optimized->query);
    }
    for (const std::string& name : created) {
      EXPECT_OK(catalog.DropView(name));
    }
  }
  return {plans, view_backed};
}

TEST(ClampIsNoOp, PinnedFuzzShards) {
  for (int shard = 0; shard < 10; ++shard) {
    FuzzOptions options = DifferentialFuzzShard(shard);
    EXPECT_EQ(ExpectClampIsNoOp(options).first, options.num_queries * 4);
  }
}

TEST(ClampIsNoOp, ReplaySeeds) {
  for (uint64_t seed : {12345, 23}) {
    FuzzOptions options = Fuzz10Options(seed);
    EXPECT_EQ(ExpectClampIsNoOp(options).first, options.num_queries * 4);
  }
}

TEST(ClampIsNoOp, ViewBackedPlans) {
  auto [plans, view_backed] = ExpectClampIsNoOp(MatViewOptions());
  EXPECT_GT(plans, 0);
  EXPECT_GT(view_backed, 0);
}

}  // namespace
}  // namespace aggview
