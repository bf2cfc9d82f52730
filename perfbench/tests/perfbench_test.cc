// Tests of the benchmark itself: the percentile rule, span and operator
// self-time arithmetic, result digests, the plan-cache replay, error-rate
// accounting, and a smoke-sized run of every workload.
#include <gtest/gtest.h>

#include <set>

#include "aggview.h"
#include "harness.h"
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileReportable(200, 0.95));
  EXPECT_FALSE(PercentileReportable(199, 0.95));
  // The median is always reportable, with its sample count.
  EXPECT_TRUE(PercentileReportable(20, 0.50));
  EXPECT_TRUE(PercentileReportable(1, 0.50));
  EXPECT_TRUE(PercentileReportable(100, 0.90));
  EXPECT_FALSE(PercentileReportable(99, 0.90));
  EXPECT_FALSE(PercentileReportable(0, 0.50));
}

TEST(PercentileRuleTest, HighestReportablePercentile) {
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(100), 0.90);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(200), 0.95);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(10), 0.5);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(0), 0.0);
  // The highest reportable percentile is itself reportable, and nothing
  // above it is.
  for (int64_t n : {21, 57, 200, 1000}) {
    const double p = HighestReportablePercentile(n);
    EXPECT_TRUE(PercentileReportable(n, p)) << n;
    EXPECT_FALSE(PercentileReportable(n, p + 1.0 / static_cast<double>(n)))
        << n;
  }
}

TEST(PercentileRuleTest, NearestRankValues) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(ReportablePercentile(samples, 0.95), 190.0);
  EXPECT_EQ(ReportablePercentile(samples, 0.50), 100.0);
  samples.pop_back();
  EXPECT_FALSE(ReportablePercentile(samples, 0.95).has_value());
}

Span MakeSpan(int64_t id, int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "x.y";
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanSelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),
      MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),    // overlaps span 2: counted once
      MakeSpan(4, 1, 90, 120),   // sticks out of the parent: clipped
      MakeSpan(5, 3, 25, 35),    // grandchild: only span 3 loses it
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(SpanSelfTimeTest, SelfTimesOfATreeSumToTheRoot) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 1000), MakeSpan(2, 1, 100, 400),
      MakeSpan(3, 2, 150, 250), MakeSpan(4, 1, 500, 900),
      MakeSpan(5, 4, 500, 900),
  };
  int64_t total = 0;
  for (int64_t s : SelfTimesNs(spans)) total += s;
  EXPECT_EQ(total, 1000);
}

TEST(SpanSelfTimeTest, LayerIsTheNamePrefix) {
  EXPECT_EQ(LayerOf("sql.parse_bind"), "sql");
  EXPECT_EQ(LayerOf("exec.op.Sort.self"), "exec");
  EXPECT_EQ(LayerOf("plain"), "plain");
}

std::unique_ptr<aggview::Server> SmallServer(int threads) {
  aggview::ServerOptions options;
  options.threads = threads;
  auto server = std::make_unique<aggview::Server>(options);
  auto tables = aggview::CreateEmpDeptSchema(&server->catalog());
  EXPECT_TRUE(tables.ok());
  aggview::EmpDeptOptions data;
  data.num_employees = 2000;
  data.num_departments = 20;
  EXPECT_TRUE(
      aggview::GenerateEmpDeptData(&server->catalog(), *tables, data).ok());
  return server;
}

TEST(OperatorSelfTimeTest, SerialSelfTimesTelescopeToTheRoot) {
  auto server = SmallServer(1);
  auto query = aggview::ParseAndBind(
      server->catalog(),
      "select d.budget, sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno and e.age > 30 group by d.budget");
  ASSERT_TRUE(query.ok());
  auto optimized = aggview::OptimizeTraditional(*query);
  ASSERT_TRUE(optimized.ok());
  aggview::RuntimeStatsCollector stats;
  aggview::ExecContext ctx;
  ASSERT_TRUE(aggview::ExecutePlan(optimized->plan, optimized->query,
                                   ctx.WithStats(&stats))
                  .ok());
  std::vector<OperatorSelf> ops = OperatorSelfTimes(optimized->plan, stats);
  ASSERT_FALSE(ops.empty());
  int64_t self_total = 0;
  std::set<std::string> classes;
  for (const OperatorSelf& op : ops) {
    EXPECT_GE(op.self_ns, 0);
    EXPECT_EQ(op.workers, 1);
    self_total += op.self_ns;
    classes.insert(op.op_class);
  }
  EXPECT_TRUE(classes.count("TableScan") > 0);
  EXPECT_TRUE(classes.count("HashAggregate") > 0);
  // Without clamping, inclusive minus inputs telescopes to the root's
  // inclusive time; clamping can only add.
  const aggview::OpStats* root = stats.ForNode(optimized->plan.get());
  ASSERT_NE(root, nullptr);
  EXPECT_GE(self_total, root->total_ns());
}

TEST(ResultDigestTest, IgnoresRowOrderAndLastDigitNoise) {
  aggview::QueryResult a, b, c;
  a.rows = {{aggview::Value::Int(1), aggview::Value::Real(0.1 + 0.2)},
            {aggview::Value::Int(2), aggview::Value::Str("x")}};
  b.rows = {{aggview::Value::Int(2), aggview::Value::Str("x")},
            {aggview::Value::Int(1), aggview::Value::Real(0.3)}};
  c.rows = {{aggview::Value::Int(2), aggview::Value::Str("x")},
            {aggview::Value::Int(1), aggview::Value::Real(0.3001)}};
  EXPECT_EQ(DigestOf(a), DigestOf(b));
  EXPECT_NE(DigestOf(a), DigestOf(c));
  aggview::QueryResult dup = b;
  dup.rows.push_back(dup.rows[0]);
  EXPECT_NE(DigestOf(b), DigestOf(dup));
}

TEST(CacheReplayTest, LruCounts) {
  const CacheCounts counts =
      ExpectedCacheCounts({"a", "b", "a", "c", "b", "a"}, 2);
  // a miss, b miss, a hit, c miss (evicts b), b miss (evicts a), a miss.
  EXPECT_EQ(counts.hits, 1);
  EXPECT_EQ(counts.misses, 5);
  EXPECT_EQ(ExpectedCacheCounts({"a", "a"}, 0).misses, 2);
}

TEST(ErrorRateTest, InjectedFailingStatementIsCounted) {
  auto server = SmallServer(1);
  ServerBackend backend(server.get());
  std::unique_ptr<Client> client = backend.Connect();
  const std::vector<std::string> statements = {
      "select dno, count(*) from emp group by dno",
      "select nothing from nowhere",  // fails to bind
      "select sum(sal) from emp",
  };
  PhaseLimits limits;
  limits.exact_reads = 6;
  limits.hard_deadline_ns = NowNs() + int64_t{60} * 1'000'000'000;
  std::vector<std::string> failures;
  Phase phase = RunSerialPhase(
      client.get(), statements, limits,
      [](size_t, const aggview::QueryResult&) { return true; }, &failures);
  EXPECT_EQ(phase.attempted, 6);
  EXPECT_EQ(phase.failed, 2);
  EXPECT_EQ(phase.reads.size(), 4u);
  EXPECT_DOUBLE_EQ(ErrorRate(phase.attempted, phase.failed), 2.0 / 6.0);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("nowhere"), std::string::npos);
  EXPECT_DOUBLE_EQ(ErrorRate(0, 0), 0.0);
}

TEST(ErrorRateTest, MismatchCountsAsFailedOperation) {
  auto server = SmallServer(1);
  ServerBackend backend(server.get());
  std::unique_ptr<Client> client = backend.Connect();
  PhaseLimits limits;
  limits.exact_reads = 3;
  limits.hard_deadline_ns = NowNs() + int64_t{60} * 1'000'000'000;
  std::vector<std::string> failures;
  Phase phase = RunSerialPhase(
      client.get(), {"select count(*) from emp"}, limits,
      [](size_t i, const aggview::QueryResult&) { return i != 1; }, &failures);
  EXPECT_EQ(phase.failed, 1);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].rfind("MISMATCH", 0), 0u);
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, UntracedRunReportsEveryEndToEndMetric) {
  RunOptions options;
  options.workload = GetParam();
  options.seed = 3;
  options.seconds = 0.5;
  options.smoke = true;
  RunReport report = RunBenchmark(options);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.correct);
  EXPECT_GT(report.attempted, 0);
  EXPECT_EQ(report.failed, 0);
  std::set<std::string> names;
  for (const Metric& m : report.metrics) {
    names.insert(m.name);
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  for (const char* name :
       {"setup_s", "qps", "query_p50_ms", "query_p95_ms", "prepare_p50_ms",
        "io_pages_per_query", "peak_rss_mb"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  EXPECT_EQ(names.size(), 7u);
  std::set<std::string> extra;
  for (const Metric& m : report.extra) extra.insert(m.name);
  EXPECT_EQ(extra.count("prepare_p95_ms"), 1u);
  EXPECT_EQ(extra.count("error_rate"), 1u);
}

TEST_P(SmokeTest, TracedRunReportsPerLayerMetrics) {
  RunOptions options;
  options.workload = GetParam();
  options.seed = 4;
  options.seconds = 0.5;
  options.smoke = true;
  options.trace = true;
  RunReport report = RunBenchmark(options);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.correct);
  std::set<std::string> names;
  for (const Metric& m : report.metrics) names.insert(m.name);
  for (const char* name :
       {"server.cache_hit_ratio", "sql.share", "view.answered_ratio",
        "optimizer.alternatives_per_query", "exec.share",
        "exec.op.TableScan.self_ms", "harness.tracing_overhead"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::Values("olap_hot", "adhoc_views",
                                           "matview_mix"));

}  // namespace
}  // namespace perfbench
