#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
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

/// Executes `plan` under `ctx` (with a fresh IO accountant installed);
/// stores the charged pages in `io_pages` when given.
Result<QueryResult> RunPlanUnder(const PlanPtr& plan, const Query& query,
                                 ExecContext ctx, int64_t* io_pages = nullptr) {
  IoAccountant io;
  auto result = ExecutePlan(plan, query, ctx.WithIo(&io));
  if (result.ok() && io_pages != nullptr) *io_pages = io.total();
  return result;
}

/// Optimizes `sql` and executes the winning plan under `ctx`.
Result<QueryResult> RunUnder(const Catalog& catalog, const std::string& sql,
                             ExecContext ctx, int64_t* io_pages = nullptr) {
  auto query = ParseAndBind(catalog, sql);
  if (!query.ok()) return query.status();
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  if (!optimized.ok()) return optimized.status();
  return RunPlanUnder(optimized->plan, optimized->query, ctx, io_pages);
}

/// Executes `plan` serially as the reference, then re-executes it at every
/// (threads, morsel_rows, batch_size) combination given and asserts the
/// fingerprint and the charged IO pages never change.
void CheckPlanDeterministicAcrossThreads(
    const PlanPtr& plan, const Query& query,
    const std::vector<int>& thread_counts,
    const std::vector<int64_t>& morsel_sizes,
    const std::vector<int>& batch_sizes) {
  int64_t reference_io = -1;
  auto reference =
      RunPlanUnder(plan, query, ExecContext{}.WithThreads(1), &reference_io);
  ASSERT_OK(reference);
  const std::string want = reference->Fingerprint();

  for (int threads : thread_counts) {
    for (int64_t morsel_rows : morsel_sizes) {
      for (int batch_size : batch_sizes) {
        int64_t io = -1;
        auto result = RunPlanUnder(plan, query,
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

/// CheckPlanDeterministicAcrossThreads on the optimizer's plan for `sql`.
void CheckDeterministicAcrossThreads(
    const Catalog& catalog, const std::string& sql,
    const std::vector<int>& thread_counts,
    const std::vector<int64_t>& morsel_sizes,
    const std::vector<int>& batch_sizes) {
  auto query = ParseAndBind(catalog, sql);
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  CheckPlanDeterministicAcrossThreads(optimized->plan, optimized->query,
                                      thread_counts, morsel_sizes,
                                      batch_sizes);
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
/// identically by the serial build, the parallel partitioned build, and
/// every probe worker.
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
/// plan preorder, one entry per operator lowered from the node (a join and
/// its projection count separately): output and input rows, build rows and
/// probes, spill pages and charged pages. Everything a thread count or
/// morsel size must not change; only `workers` and the clocks may.
std::vector<std::string> NodeCounters(const PlanPtr& plan,
                                      const RuntimeStatsCollector& stats) {
  std::vector<std::string> out;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr) return;
    std::string ops;
    for (const RuntimeStatsCollector::Entry& e : stats.entries()) {
      if (e.node != node.get()) continue;
      const OpStats& s = *e.stats;
      ops += s.op_name + "{rows=" + std::to_string(s.rows_produced) +
             " in=" + std::to_string(s.input_rows) +
             " build=" + std::to_string(s.hash_build_rows) +
             " probes=" + std::to_string(s.hash_probes) +
             " spill=" + std::to_string(s.spill_pages) +
             " pages=" + std::to_string(s.pages_charged) + "}";
    }
    out.push_back(ops.empty() ? "(not lowered)" : ops);
    walk(node->left);
    walk(node->right);
  };
  walk(plan);
  return out;
}

/// The input each block-nested-loop join of `plan` held in the run that
/// filled `stats`, in plan preorder: "outer" when the join's build rows
/// equal its left input's rows, "inner" when they equal its right input's.
/// Meaningful on inputs of different sizes without NULL join keys.
std::vector<std::string> BnlHeldSides(const PlanPtr& plan,
                                      const RuntimeStatsCollector& stats) {
  std::vector<std::string> out;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node == nullptr) return;
    for (const RuntimeStatsCollector::Entry& e : stats.entries()) {
      if (e.node != node.get() || e.stats->op_name != "NestedLoopJoin") {
        continue;
      }
      const int64_t build = e.stats->hash_build_rows;
      if (build == stats.ForNode(node->left.get())->rows_produced) {
        out.push_back("outer");
      } else if (build == stats.ForNode(node->right.get())->rows_produced) {
        out.push_back("inner");
      } else {
        out.push_back("build=" + std::to_string(build));
      }
    }
    walk(node->left);
    walk(node->right);
  };
  walk(plan);
  return out;
}

/// Optimizes `sql` once and executes the plan at threads {1, 2, 8} x morsel
/// rows {1000, 16384}, instrumented; asserts every plan node's counters (and
/// the result and the IO total) match the serial run. Stores the serial
/// run's BnlHeldSides in `held` when given.
void CheckNodeCountersAcrossThreads(const Catalog& catalog,
                                    const std::string& sql,
                                    std::vector<std::string>* held = nullptr) {
  auto query = ParseAndBind(catalog, sql);
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  struct Run {
    std::string fingerprint;
    int64_t io = 0;
    std::vector<std::string> nodes;
    std::vector<std::string> held;
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
    out->held = BnlHeldSides(optimized->plan, stats);
  };
  Run want;
  run(1, kDefaultMorselRows, &want);
  if (held != nullptr) *held = want.held;
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

constexpr char kBudgetRollupSql[] =
    "select d.budget, sum(e.sal), count(*) from emp e, dept d "
    "where e.dno = d.dno group by d.budget";
/// A theta join whose filtered emp outer is estimated larger than the bare
/// dept inner, so the block-nested-loop join holds dept and streams emp.
constexpr char kThetaJoinSql[] =
    "select e.eno, d.dno from emp e, dept d "
    "where e.sal > d.budget and e.age < 40";

/// Block-nested-loop joins hold one input and stream the other
/// morsel-parallel. Q17 at SF 0.01 holds its small part side and streams
/// lineitem; the emp x dept rollup holds dept, also with one department
/// (every emp row probes one key); an outer estimated larger than its inner
/// streams while the inner is held.
TEST(ParallelNodeCounters, BlockNestedLoopShapes) {
  const std::vector<std::string> held_outer = {"outer"};
  const std::vector<std::string> held_inner = {"inner"};
  std::vector<std::string> held;

  DbgenOptions options;
  options.scale_factor = 0.01;
  TpcdFixture tpcd = MakeTpcd(options);
  CheckNodeCountersAcrossThreads(
      *tpcd.catalog, tpcd_queries::SmallQuantityRevenue("Brand#21"), &held);
  EXPECT_EQ(held, held_outer);

  EmpDeptOptions spanning;
  spanning.num_employees = 40'000;
  spanning.num_departments = 100;
  EmpDeptFixture f = MakeEmpDept(spanning);
  CheckNodeCountersAcrossThreads(*f.catalog, kBudgetRollupSql, &held);
  EXPECT_EQ(held, held_outer);
  CheckNodeCountersAcrossThreads(*f.catalog, kThetaJoinSql, &held);
  EXPECT_EQ(held, held_inner);

  EmpDeptOptions skewed = spanning;
  skewed.num_departments = 1;
  EmpDeptFixture g = MakeEmpDept(skewed);
  CheckNodeCountersAcrossThreads(*g.catalog, kBudgetRollupSql, &held);
  EXPECT_EQ(held, held_outer);
}

/// The optimizer's plan for `sql`, rendered; empty when it fails.
std::string PlanOf(const Catalog& catalog, const std::string& sql) {
  auto query = ParseAndBind(catalog, sql);
  if (!query.ok()) return "";
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  if (!optimized.ok()) return "";
  return PlanToString(optimized->plan, optimized->query);
}

/// Parallel block-nested-loop joins on the shapes where holding one side
/// and streaming the other could go wrong: NULL join keys on both sides, an
/// empty held side against a non-empty streamed one, a keyless theta join
/// (every held row a candidate), and a left outer join, which must hold its
/// inner and pad the streamed outer rows that match nothing.
TEST(ParallelDeterminism, BlockNestedLoopJoins) {
  const std::vector<int> threads = {1, 2, 8};
  const std::vector<int64_t> morsels = {1, 16'384};
  const std::vector<int> batches = {1, 1024};

  const std::string bnl = "Join(bnl)";
  Catalog null_keys;
  LoadNullKeyEmpDept(&null_keys);
  for (const char* sql : {kBudgetRollupSql, kThetaJoinSql}) {
    EXPECT_NE(PlanOf(null_keys, sql).find(bnl), std::string::npos) << sql;
    CheckDeterministicAcrossThreads(null_keys, sql, threads, morsels,
                                    batches);
  }

  EmpDeptOptions data;
  data.num_employees = 600;
  data.num_departments = 12;
  EmpDeptFixture f = MakeEmpDept(data);
  EXPECT_NE(PlanOf(*f.catalog, kThetaJoinSql).find(bnl), std::string::npos);
  CheckDeterministicAcrossThreads(*f.catalog, kThetaJoinSql, threads, {7},
                                  batches);

  // dept emptied: the held side drains nothing, emp still streams.
  Catalog& catalog = *f.catalog;
  TableDef& dept = catalog.mutable_table(f.tables.dept);
  dept.data = std::make_shared<Table>(dept.schema);
  dept.stats = ComputeStats(*dept.data);
  EXPECT_NE(PlanOf(catalog, kBudgetRollupSql).find(bnl), std::string::npos);
  CheckDeterministicAcrossThreads(catalog, kBudgetRollupSql, threads, {7},
                                  batches);
  auto empty = RunUnder(catalog, kBudgetRollupSql, ExecContext{}.WithThreads(8));
  ASSERT_OK(empty);
  EXPECT_TRUE(empty->rows.empty());

  // Left outer: dept (3 rows, one NULL-keyed) outer, emp inner; dept 1
  // matches two employees, dept 2 one, the NULL-keyed dept none.
  auto dept_id = null_keys.FindTable("dept");
  ASSERT_OK(dept_id);
  auto emp_id = null_keys.FindTable("emp");
  ASSERT_OK(emp_id);
  Query q(&null_keys);
  int d = q.AddRangeVar(*dept_id, "d");
  int e = q.AddRangeVar(*emp_id, "e");
  q.base_rels() = {d, e};
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId eno = q.range_var(e).columns[0];
  q.select_list() = {d_dno, eno};
  PlanBuilder b(q);
  std::set<ColId> needed = {d_dno, e_dno, eno};
  auto outer = std::make_shared<PlanNode>(
      *b.Join(JoinAlgo::kBlockNestedLoop, b.Scan(d, {}, needed),
              b.Scan(e, {}, needed), {EqCols(d_dno, e_dno)}, needed));
  outer->left_outer = true;
  PlanPtr plan = b.Project(outer, q.select_list());
  CheckPlanDeterministicAcrossThreads(plan, q, threads, morsels, batches);
  auto padded = RunPlanUnder(plan, q, ExecContext{}.WithThreads(8));
  ASSERT_OK(padded);
  EXPECT_EQ(padded->rows.size(), 4u);
}

/// A scan whose filter reads a column the scan does not project: the filter
/// runs on the table's columns in place and only the projected cells (and,
/// when asked for, the row id of a keyless table) are copied out. Every
/// thread count and batch size matches the serial fingerprint, and each
/// output row is the table row its id names.
TEST(ParallelDeterminism, ScanFilterOnUnprojectedColumn) {
  Catalog catalog;
  TableDef def;
  def.name = "log";  // no key, so the range variable carries a row id
  def.schema = Schema({{"k", DataType::kInt64},
                       {"v", DataType::kDouble},
                       {"s", DataType::kString}});
  auto table_id = catalog.AddTable(std::move(def));
  ASSERT_OK(table_id);
  auto data = std::make_shared<Table>(catalog.table(*table_id).schema);
  int64_t want = 0;
  for (int64_t i = 0; i < 5'000; ++i) {
    const double v = static_cast<double>((i * 7919) % 1'000);
    want += v < 250.0 ? 1 : 0;
    data->AppendUnchecked({Value::Int(i % 37), Value::Real(v),
                           Value::Str("s" + std::to_string(i % 11))});
  }
  catalog.mutable_table(*table_id).stats = ComputeStats(*data);
  catalog.mutable_table(*table_id).data = data;

  Query q(&catalog);
  const int t = q.AddRangeVar(*table_id, "t");
  q.base_rels() = {t};
  const RangeVar& rv = q.range_var(t);
  ASSERT_NE(rv.rowid, kInvalidColId);
  const ColId k = rv.columns[0];
  const ColId v = rv.columns[1];
  const std::vector<Predicate> filter = {
      Cmp(Col(v), CompareOp::kLt, LitReal(250.0))};
  for (bool with_rowid : {false, true}) {
    SCOPED_TRACE(with_rowid ? "with rowid" : "without rowid");
    q.select_list() = with_rowid ? std::vector<ColId>{rv.rowid, k}
                                 : std::vector<ColId>{k};
    const std::set<ColId> needed(q.select_list().begin(),
                                 q.select_list().end());
    PlanBuilder b(q);
    PlanPtr plan = b.Project(b.Scan(t, filter, needed), q.select_list());
    CheckPlanDeterministicAcrossThreads(plan, q, {1, 4}, {1'000}, {1, 1024});
    auto result = RunPlanUnder(plan, q, ExecContext{}.WithThreads(4));
    ASSERT_OK(result);
    EXPECT_EQ(static_cast<int64_t>(result->rows.size()), want);
    for (const Row& row : result->rows) {
      ASSERT_EQ(row.size(), q.select_list().size());
      if (!with_rowid) continue;
      const int64_t r = row[0].AsInt();
      EXPECT_LT(data->at(r, 1).AsDouble(), 250.0);
      EXPECT_EQ(row[1], data->at(r, 0));
    }
  }
}

/// Thread counts and batch sizes every partitioned-aggregation case runs at;
/// the 1000-row morsels spread each input over every worker.
const std::vector<int> kAggThreads = {1, 2, 4, 8};
const std::vector<int64_t> kAggMorsels = {1'000};
const std::vector<int> kAggBatches = {1, 1024};

/// Loads an `emp` of `n` rows whose dno and sal columns `make(i)` fills
/// (eno = i, age = i % 50), and an empty `dept`.
void LoadEmp(Catalog* catalog, int64_t n,
             const std::function<std::pair<Value, Value>(int64_t)>& make) {
  LoadEmptyEmpDept(catalog);
  TableId emp_id = *catalog->FindTable("emp");
  auto emp = std::make_shared<Table>(catalog->table(emp_id).schema);
  for (int64_t i = 0; i < n; ++i) {
    auto [dno, sal] = make(i);
    emp->AppendUnchecked({Value::Int(i), std::move(dno), std::move(sal),
                          Value::Int(i % 50)});
  }
  catalog->mutable_table(emp_id).stats = ComputeStats(*emp);
  catalog->mutable_table(emp_id).data = emp;
}

/// Far more groups than the 16 radix partitions: 12'000 groups over 20'000
/// rows, so every partition holds hundreds of groups, and a group's rows lie
/// 12'000 rows apart, in morsels that different workers may claim.
TEST(PartitionedAggregation, FarMoreGroupsThanPartitions) {
  Catalog catalog;
  LoadEmp(&catalog, 20'000, [](int64_t i) {
    return std::make_pair(Value::Int(i % 12'000), Value::Real(i * 0.5));
  });
  const std::string sql =
      "select e.dno, sum(e.sal), count(*), min(e.age), max(e.sal) "
      "from emp e group by e.dno";
  CheckDeterministicAcrossThreads(catalog, sql, kAggThreads, kAggMorsels,
                                  kAggBatches);
  auto result = RunUnder(catalog, sql, ExecContext{}.WithThreads(4));
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 12'000u);
}

/// A DOUBLE grouping column holding Int(k) everywhere except one Real(3.0)
/// late in the table: only the worker that claims that morsel leaves the
/// INT64 lane, so the others migrate before the merge, and 3 and 3.0 must
/// still be one group.
TEST(PartitionedAggregation, MixedIntAndRealKeysMigrateSomeWorkers) {
  Catalog catalog;
  LoadEmp(&catalog, 6'000, [](int64_t i) {
    Value key = i == 4'321 ? Value::Real(3.0) : Value::Int(i % 40);
    return std::make_pair(Value::Int(1), std::move(key));
  });
  const std::string sql =
      "select e.sal, count(*), sum(e.age) from emp e group by e.sal";
  CheckDeterministicAcrossThreads(catalog, sql, kAggThreads, kAggMorsels,
                                  kAggBatches);
  for (int threads : kAggThreads) {
    auto result = RunUnder(catalog, sql, ExecContext{}
                                             .WithThreads(threads)
                                             .WithMorselRows(1'000));
    ASSERT_OK(result);
    ASSERT_EQ(result->rows.size(), 40u) << "threads=" << threads;
    int64_t count_of_3 = 0;
    for (const Row& r : result->rows) {
      if (r[0].AsNumeric() == 3.0) count_of_3 = r[1].AsInt();
    }
    // 150 rows have i % 40 == 3, and row 4'321 (i % 40 == 1) adds the Real.
    EXPECT_EQ(count_of_3, 151) << "threads=" << threads;
  }
}

/// A NULL group beside ordinary ones, filtered by HAVING and carrying a
/// MEDIAN (merged by sample concatenation): every seventh row has a NULL
/// dno, so the NULL group spans every morsel.
TEST(PartitionedAggregation, NullGroupWithHavingAndMedian) {
  Catalog catalog;
  LoadEmp(&catalog, 5'000, [](int64_t i) {
    Value dno = i % 7 == 0 ? Value::Null() : Value::Int(i % 97);
    return std::make_pair(std::move(dno), Value::Real((i * 37) % 1'000));
  });
  const std::string sql =
      "select e.dno, median(e.sal), count(*) from emp e group by e.dno "
      "having count(*) > 44";
  CheckDeterministicAcrossThreads(catalog, sql, kAggThreads, kAggMorsels,
                                  kAggBatches);
  auto result = RunUnder(catalog, sql, ExecContext{}.WithThreads(4));
  ASSERT_OK(result);
  bool saw_null = false;
  for (const Row& r : result->rows) {
    EXPECT_GT(r[2].AsInt(), 44);
    if (r[0].is_null()) {
      saw_null = true;
      EXPECT_EQ(r[2].AsInt(), 715);  // ceil(5000 / 7)
    }
  }
  EXPECT_TRUE(saw_null);
}

/// A scalar aggregate over empty input at 4 threads yields exactly one row:
/// every worker starts with the one group, and the merge keeps it one.
TEST(PartitionedAggregation, ScalarAggregateOverEmptyInput) {
  Catalog catalog;
  LoadEmptyEmpDept(&catalog);
  const std::string sql =
      "select count(*), sum(e.sal), min(e.age), max(e.sal), median(e.sal) "
      "from emp e";
  CheckDeterministicAcrossThreads(catalog, sql, kAggThreads, kAggMorsels,
                                  kAggBatches);
  auto result = RunUnder(catalog, sql, ExecContext{}.WithThreads(4));
  ASSERT_OK(result);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  for (size_t i = 1; i < 5; ++i) EXPECT_TRUE(result->rows[0][i].is_null());
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
