#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "test_util.h"

namespace aggview {
namespace {

/// Morsel-driven parallelism must be invisible to query semantics: the same
/// plan executed at any thread count, any morsel size and any batch size
/// yields a byte-identical result fingerprint and charges exactly the same
/// number of IO pages as the serial run. These tests pin that contract on
/// the shapes where a parallel engine classically goes wrong: groups that
/// span morsel boundaries, NULL join keys, empty inputs, and a build side
/// skewed into a single partition.

/// Optimizes `sql` and executes the winning plan under `ctx` (with a fresh
/// IO accountant installed); returns the result, or asserts.
Result<QueryResult> RunUnder(const Catalog& catalog, const std::string& sql,
                             ExecContext ctx, int64_t* io_pages = nullptr) {
  auto query = ParseAndBind(catalog, sql);
  if (!query.ok()) return query.status();
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  if (!optimized.ok()) return optimized.status();
  IoAccountant io;
  auto result = ExecutePlan(optimized->plan, optimized->query,
                            ctx.WithIo(&io));
  if (result.ok() && io_pages != nullptr) *io_pages = io.total();
  return result;
}

/// Executes `sql` serially as the reference, then re-executes it at every
/// (threads, morsel_rows, batch_size) combination given and asserts the
/// fingerprint and the charged IO pages never change.
void CheckDeterministicAcrossThreads(
    const Catalog& catalog, const std::string& sql,
    const std::vector<int>& thread_counts,
    const std::vector<int64_t>& morsel_sizes,
    const std::vector<int>& batch_sizes) {
  int64_t reference_io = -1;
  auto reference =
      RunUnder(catalog, sql, ExecContext{}.WithThreads(1), &reference_io);
  ASSERT_OK(reference);
  const std::string want = reference->Fingerprint();

  for (int threads : thread_counts) {
    for (int64_t morsel_rows : morsel_sizes) {
      for (int batch_size : batch_sizes) {
        int64_t io = -1;
        auto result = RunUnder(catalog, sql,
                               ExecContext{}
                                   .WithThreads(threads)
                                   .WithMorselRows(morsel_rows)
                                   .WithBatchSize(batch_size),
                               &io);
        ASSERT_OK(result);
        EXPECT_EQ(result->Fingerprint(), want)
            << "threads=" << threads << " morsel_rows=" << morsel_rows
            << " batch_size=" << batch_size;
        EXPECT_EQ(io, reference_io)
            << "IO charge diverged: threads=" << threads
            << " morsel_rows=" << morsel_rows << " batch_size=" << batch_size;
      }
    }
  }
}

/// Groups that span morsel boundaries: 40'000 employees over 100 departments
/// means every department's rows are spread across all three default-size
/// morsels, so thread-local partial aggregates *must* merge to be correct.
TEST(ParallelDeterminism, GroupsSpanningMorselBoundaries) {
  EmpDeptOptions data;
  data.num_employees = 40'000;
  data.num_departments = 100;
  EmpDeptFixture f = MakeEmpDept(data);
  CheckDeterministicAcrossThreads(*f.catalog, Example2Sql(), {1, 2, 8},
                                  {16'384}, {1024});
}

/// Tiny morsels (7 rows) over the paper's Example 1 force thousands of
/// dispenser claims and heavy interleaving between workers — a stress test
/// for the claim protocol at both degenerate and default batch sizes.
TEST(ParallelDeterminism, TinyMorselsManyClaims) {
  EmpDeptOptions data;
  data.num_employees = 600;
  data.num_departments = 12;
  data.young_fraction = 0.3;
  EmpDeptFixture f = MakeEmpDept(data);
  CheckDeterministicAcrossThreads(*f.catalog, Example1Sql(), {2, 8}, {7},
                                  {1, 1024});
}

/// Loads emp/dept with NULL join keys into `catalog`: dept.dno has a NULL,
/// emp.dno has two.
void LoadNullKeyEmpDept(Catalog* catalog_ptr) {
  Catalog& catalog = *catalog_ptr;
  auto tables = CreateEmpDeptSchema(&catalog);
  ASSERT_OK(tables);

  auto dept = std::make_shared<Table>(catalog.table(tables->dept).schema);
  dept->AppendUnchecked({Value::Int(1), Value::Real(100000.0)});
  dept->AppendUnchecked({Value::Int(2), Value::Real(200000.0)});
  dept->AppendUnchecked({Value::Null(), Value::Real(300000.0)});
  catalog.mutable_table(tables->dept).stats = ComputeStats(*dept);
  catalog.mutable_table(tables->dept).data = dept;

  auto emp = std::make_shared<Table>(catalog.table(tables->emp).schema);
  auto add = [&](int64_t eno, Value dno, double sal) {
    emp->AppendUnchecked(
        {Value::Int(eno), std::move(dno), Value::Real(sal), Value::Int(30)});
  };
  add(1, Value::Int(1), 100);
  add(2, Value::Int(1), 200);
  add(3, Value::Int(2), 300);
  add(4, Value::Null(), 400);
  add(5, Value::Null(), 500);
  catalog.mutable_table(tables->emp).stats = ComputeStats(*emp);
  catalog.mutable_table(tables->emp).data = emp;
}

/// Loads empty emp and dept tables into `catalog`.
void LoadEmptyEmpDept(Catalog* catalog) {
  auto tables = CreateEmpDeptSchema(catalog);
  ASSERT_OK(tables);
  for (TableId id : {tables->emp, tables->dept}) {
    auto table = std::make_shared<Table>(catalog->table(id).schema);
    catalog->mutable_table(id).stats = ComputeStats(*table);
    catalog->mutable_table(id).data = table;
  }
}

constexpr char kNullKeyJoinSql[] =
    "select e.eno, d.budget from emp e, dept d where e.dno = d.dno";
constexpr char kEmptyScalarSql[] = "select count(*), avg(e.sal) from emp e";
constexpr char kEmptyJoinSql[] =
    "select e.eno from emp e, dept d where e.dno = d.dno";

/// NULL join keys: rows with a NULL key match nothing and must be dropped
/// identically by the serial build, the parallel spool-then-partition build,
/// and every probe worker.
TEST(ParallelDeterminism, NullJoinKeys) {
  Catalog catalog;
  LoadNullKeyEmpDept(&catalog);
  const std::string sql = kNullKeyJoinSql;
  // Morsel size 1 maximizes the chance that the NULL-keyed rows land in
  // different workers than their neighbours.
  CheckDeterministicAcrossThreads(catalog, sql, {1, 2, 8}, {1, 16'384},
                                  {1, 1024});

  auto result = RunUnder(catalog, sql, ExecContext{}.WithThreads(8));
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 3u);
}

/// Empty inputs: a scalar aggregate over zero rows still produces its one
/// synthesized row (COUNT = 0, AVG = NULL) on every thread count, and a join
/// of two empty tables produces zero rows without tripping the parallel
/// build or the morsel dispenser.
TEST(ParallelDeterminism, EmptyInputs) {
  Catalog catalog;
  LoadEmptyEmpDept(&catalog);

  const std::string scalar = kEmptyScalarSql;
  CheckDeterministicAcrossThreads(catalog, scalar, {1, 2, 8}, {1, 16'384},
                                  {1, 1024});
  auto result = RunUnder(catalog, scalar, ExecContext{}.WithThreads(8));
  ASSERT_OK(result);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  EXPECT_TRUE(result->rows[0][1].is_null());

  const std::string join = kEmptyJoinSql;
  CheckDeterministicAcrossThreads(catalog, join, {1, 2, 8}, {1, 16'384},
                                  {1, 1024});
}

/// Skewed build side: a single department means every build row hashes to
/// the same key (one partition does all the work) and the probe fans every
/// emp row into the same chain. Partitioning must not lose or duplicate.
TEST(ParallelDeterminism, SkewedBuildSide) {
  EmpDeptOptions data;
  data.num_employees = 5'000;
  data.num_departments = 1;
  data.young_fraction = 0.5;
  EmpDeptFixture f = MakeEmpDept(data);
  CheckDeterministicAcrossThreads(*f.catalog, Example1Sql(), {1, 2, 8},
                                  {1'000}, {1024});
}

/// The counters of every plan node after one instrumented execution, in
/// plan preorder: output and input rows, hash build rows and probes, spill
/// pages and charged pages (summed over the node's operators). Everything a
/// thread count or morsel size must not change; only `workers` and the
/// clocks may.
std::vector<std::string> NodeCounters(const PlanPtr& plan,
                                      const RuntimeStatsCollector& stats) {
  std::vector<std::string> out;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr) return;
    const OpStats* s = stats.ForNode(node.get());
    if (s == nullptr) {
      out.push_back("(not lowered)");
    } else {
      out.push_back("rows=" + std::to_string(s->rows_produced) +
                    " in=" + std::to_string(s->input_rows) +
                    " build=" + std::to_string(s->hash_build_rows) +
                    " probes=" + std::to_string(s->hash_probes) +
                    " spill=" + std::to_string(s->spill_pages) + " pages=" +
                    std::to_string(stats.PagesForNode(node.get())));
    }
    walk(node->left);
    walk(node->right);
  };
  walk(plan);
  return out;
}

/// Optimizes `sql` once and executes the plan at threads {1, 2, 8} x morsel
/// rows {1000, 16384}, instrumented; asserts every plan node's counters (and
/// the result and the IO total) match the serial run.
void CheckNodeCountersAcrossThreads(const Catalog& catalog,
                                    const std::string& sql) {
  auto query = ParseAndBind(catalog, sql);
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  struct Run {
    std::string fingerprint;
    int64_t io = 0;
    std::vector<std::string> nodes;
  };
  auto run = [&](int threads, int64_t morsel_rows, Run* out) {
    RuntimeStatsCollector stats;
    IoAccountant io;
    auto result = ExecutePlan(optimized->plan, optimized->query,
                              ExecContext{}
                                  .WithThreads(threads)
                                  .WithMorselRows(morsel_rows)
                                  .WithStats(&stats)
                                  .WithIo(&io));
    ASSERT_OK(result);
    out->fingerprint = result->Fingerprint();
    out->io = io.total();
    out->nodes = NodeCounters(optimized->plan, stats);
  };
  Run want;
  run(1, kDefaultMorselRows, &want);
  for (int threads : {1, 2, 8}) {
    for (int64_t morsel_rows : {int64_t{1000}, int64_t{16'384}}) {
      Run got;
      run(threads, morsel_rows, &got);
      const std::string where = "threads=" + std::to_string(threads) +
                                " morsel_rows=" + std::to_string(morsel_rows);
      EXPECT_EQ(got.fingerprint, want.fingerprint) << where;
      EXPECT_EQ(got.io, want.io) << where;
      EXPECT_EQ(got.nodes, want.nodes) << where;
    }
  }
}

/// Per-node counter invariance over the shapes above: the worker clones'
/// private stats blocks fold back into exactly the serial counters, node by
/// node, and the hash join's probe-side charge lands once.
TEST(ParallelNodeCounters, EmpDeptShapes) {
  EmpDeptOptions spanning;
  spanning.num_employees = 40'000;
  spanning.num_departments = 100;
  EmpDeptFixture f = MakeEmpDept(spanning);
  CheckNodeCountersAcrossThreads(*f.catalog, Example2Sql());

  EmpDeptOptions skewed;
  skewed.num_employees = 5'000;
  skewed.num_departments = 1;
  skewed.young_fraction = 0.5;
  EmpDeptFixture g = MakeEmpDept(skewed);
  CheckNodeCountersAcrossThreads(*g.catalog, Example1Sql());

  Catalog null_keys;
  LoadNullKeyEmpDept(&null_keys);
  CheckNodeCountersAcrossThreads(null_keys, kNullKeyJoinSql);

  Catalog empty;
  LoadEmptyEmpDept(&empty);
  CheckNodeCountersAcrossThreads(empty, kEmptyScalarSql);
  CheckNodeCountersAcrossThreads(empty, kEmptyJoinSql);
}

/// TPC-D at SF 0.01 (~60k lineitems, several morsels at either size): a
/// lineitem probe against a supplier hash build, and a grouped aggregate
/// over a scan.
TEST(ParallelNodeCounters, TpcdProbeAndAggregate) {
  DbgenOptions options;
  options.scale_factor = 0.01;
  TpcdFixture f = MakeTpcd(options);
  CheckNodeCountersAcrossThreads(
      *f.catalog,
      "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
      "from lineitem l, supplier s "
      "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0");
  CheckNodeCountersAcrossThreads(
      *f.catalog,
      "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
      "from lineitem l group by l.l_suppkey");
}

/// The server front door: Sql() → ServerQuery, identical results and IO
/// charges whether the server runs serial or with a shared 8-worker pool.
TEST(SessionApi, ParallelSessionMatchesSerialSession) {
  auto make_server = [](int threads) {
    ServerOptions options;
    options.threads = threads;
    auto server = std::make_unique<Server>(options);
    auto tables = CreateEmpDeptSchema(&server->catalog());
    EXPECT_OK(tables);
    EmpDeptOptions data;
    data.num_employees = 3'000;
    data.num_departments = 40;
    data.young_fraction = 0.3;
    EXPECT_OK(GenerateEmpDeptData(&server->catalog(), *tables, data));
    return server;
  };

  auto serial = make_server(1);
  auto parallel = make_server(8);
  EXPECT_EQ(parallel->options().threads, 8);

  auto q1 = serial->Connect().Sql(Example1Sql());
  ASSERT_OK(q1);
  auto q8 = parallel->Connect().Sql(Example1Sql());
  ASSERT_OK(q8);

  // Same catalog contents + same optimizer: same plan, same explanation.
  EXPECT_EQ(q1->description(), q8->description());
  EXPECT_EQ(q1->Explain(), q8->Explain());
  EXPECT_FALSE(q1->Explain().empty());
  EXPECT_FALSE(q1->alternatives().empty());

  // Before the first run there is no measured IO.
  EXPECT_EQ(q8->last_io_pages(), -1);

  auto r1 = q1->Execute();
  ASSERT_OK(r1);
  auto r8 = q8->Execute();
  ASSERT_OK(r8);
  EXPECT_EQ(r1->Fingerprint(), r8->Fingerprint());
  EXPECT_EQ(q1->last_io_pages(), q8->last_io_pages());
  EXPECT_GT(q8->last_io_pages(), 0);

  // A prepared query re-executes (optimize once, run many).
  auto again = q8->Execute();
  ASSERT_OK(again);
  EXPECT_EQ(again->Fingerprint(), r8->Fingerprint());
}

/// EXPLAIN ANALYZE through a parallel server reports the worker count on
/// morsel-parallel operators (aggregate-over-scan always parallelizes).
TEST(SessionApi, ExplainAnalyzeReportsWorkers) {
  ServerOptions options;
  options.threads = 8;
  Server server(options);
  auto tables = CreateEmpDeptSchema(&server.catalog());
  ASSERT_OK(tables);
  EmpDeptOptions data;
  data.num_employees = 2'000;
  ASSERT_OK(GenerateEmpDeptData(&server.catalog(), *tables, data));

  auto prepared =
      server.Connect().Sql("select count(*), sum(e.sal) from emp e");
  ASSERT_OK(prepared);
  auto analyzed = prepared->ExplainAnalyze();
  ASSERT_OK(analyzed);
  EXPECT_NE(analyzed->find("workers=8"), std::string::npos) << *analyzed;
  // ExplainAnalyze executed the plan, so IO is measured now.
  EXPECT_GT(prepared->last_io_pages(), 0);

  // A serial server never reports a workers= column.
  Server serial{ServerOptions{}};
  auto t2 = CreateEmpDeptSchema(&serial.catalog());
  ASSERT_OK(t2);
  ASSERT_OK(GenerateEmpDeptData(&serial.catalog(), *t2, data));
  auto p2 = serial.Connect().Sql("select count(*), sum(e.sal) from emp e");
  ASSERT_OK(p2);
  auto a2 = p2->ExplainAnalyze();
  ASSERT_OK(a2);
  EXPECT_EQ(a2->find("workers="), std::string::npos) << *a2;
}

/// Sql() surfaces binder errors instead of crashing, and the connection's
/// traditional toggle switches the optimizer for subsequent statements.
TEST(SessionApi, ErrorsAndTraditionalToggle) {
  Server server;
  auto tables = CreateEmpDeptSchema(&server.catalog());
  ASSERT_OK(tables);
  ASSERT_OK(GenerateEmpDeptData(&server.catalog(), *tables, EmpDeptOptions{}));
  ServerSession conn = server.Connect();

  auto bad = conn.Sql("select nope.x from emp e");
  EXPECT_FALSE(bad.ok());

  auto extended = conn.Sql(Example1Sql());
  ASSERT_OK(extended);
  conn.set_use_traditional(true);
  auto traditional = conn.Sql(Example1Sql());
  ASSERT_OK(traditional);
  EXPECT_FALSE(traditional->cache_hit());

  auto re = extended->Execute();
  ASSERT_OK(re);
  auto rt = traditional->Execute();
  ASSERT_OK(rt);
  EXPECT_EQ(re->Fingerprint(), rt->Fingerprint());
}

/// An explicitly-spelled default ExecContext and ExecContext::Default()
/// drive the executor identically (modulo the environment overrides, which
/// only change throughput, never results).
TEST(ExecContextApi, ExplicitContextMatchesDefaultForm) {
  EmpDeptFixture f = MakeEmpDept();
  auto query = ParseAndBind(*f.catalog, Example1Sql());
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  IoAccountant io_explicit, io_default;
  auto via_explicit = ExecutePlan(optimized->plan, optimized->query,
                                  ExecContext{}.WithIo(&io_explicit));
  ASSERT_OK(via_explicit);
  auto via_default =
      ExecutePlan(optimized->plan, optimized->query,
                  ExecContext::Default().WithIo(&io_default));
  ASSERT_OK(via_default);
  EXPECT_EQ(via_explicit->Fingerprint(), via_default->Fingerprint());
  EXPECT_EQ(io_explicit.total(), io_default.total());

  // Defaults clamp: zero/negative knobs fall back to sane values.
  ExecContext ctx;
  ctx.WithThreads(0).WithMorselRows(-5).WithBatchSize(0);
  EXPECT_EQ(ctx.threads, 1);
  EXPECT_EQ(ctx.morsel_rows, 1);
  EXPECT_GE(ctx.batch_size, 1);
}

}  // namespace
}  // namespace aggview
