// Experiment E13 — execution-engine throughput across batch sizes and
// thread counts.
//
// The batch-at-a-time refactor claims that per-row interpretation overhead
// (virtual dispatch, stats clock reads, counter updates) amortizes over the
// batch. This experiment measures it: four TPC-D workloads — a scan-heavy
// projection over lineitem, an aggregate-heavy group-by over the same rows
// into few groups (l_suppkey) and into many (l_partkey, the group-by the
// paper's transformations move onto lineitem in Q17 and coalesce), and a
// filter-heavy wide conjunction — run at batch sizes 1 (the old
// Volcano row-at-a-time behaviour), 64, 256, 1024 (default), and 4096. Both
// execution modes are timed: uninstrumented (plain_ms) and with the EXPLAIN
// ANALYZE stats collector installed (traced_ms), where the interpreter pays
// two clock reads per Next per operator and the per-batch amortization is
// decisive.
//
// A second sweep holds the batch size at the default (1024) and varies the
// morsel-driven worker count through 1, 2, 4 and 8: parallel scan morsels,
// partitioned hash-join build and thread-local partial aggregation into
// radix partitions that merge in parallel. The
// speedup column is relative to the 1-thread run of the same workload; it
// can only approach the thread count when the host actually has that many
// cores (the closing line and the JSON host object record them), and the
// results stay byte-identical at every point regardless.
//
// A third sweep, the tpcd axis, runs real multi-operator plans end to end:
// the six tpcd_queries::AllQueries() statements as SQL text through Server
// (Sql() — a plan-cache hit after the first — plus Execute()) at 1, 2, 4
// and 8 threads on perfbench olap_hot's data (SF 0.05), one Server per
// thread count over one shared data set, plus a total row summing the six
// statements of each repetition. Its rows column counts result rows (the
// other axes count lineitems), and it has no traced or rows/sec columns.
//
// Every operator evaluates predicates in the bound form (expr/bound_expr.h):
// column references resolved to row slots once per operator, comparisons on
// typed lanes. The filter workload is the one that form targets.
//
// Expected shape: the plans are one to three operators deep, so plain_ms
// stays within a few percent across batch sizes; the traced columns carry
// the amortization, ~2x on scan and ~2.2x on aggregate from batch 1 to 1024.
// The filter plan is a bare scan that emits ~4% of its rows, so neither
// column moves for it. On the threads axis every workload speeds up ~2-3x
// at 4 threads, and 8 threads gain nothing over 4 on a 4-core host. On the
// tpcd axis every statement is faster at 4 threads than serially, from
// ~1.3x (multi-view) to ~3x (Q15, pushdown), and the six-statement total
// ~2x. Q17 is the largest statement: its block-nested-loop join holds the
// ~1.2k filtered part rows and streams ~300k lineitem rows morsel-parallel
// (~2.3x). 8 threads are slower than 4 on a 4-core host, most on Q17 and
// coalesce.
//
// The leading axis column (batch, threads, tpcd) makes every row label
// unique. The batch axis's batch_size=1024 point and the threads axis's
// threads=1 point run the same plan at the same geometry but are different
// measurements: on the threads axis each serial run is interleaved with the
// multi-thread runs of the same repetition.
//
// Every timed point reports the min (plain_ms, traced_ms) and the median
// (plain_median_ms) over its repetitions. Repetitions are interleaved
// round-robin across the axis values (all values at rep 0, then all at rep
// 1, ...) so clock-frequency drift during the run cannot systematically
// favour whichever value is measured first.
//
// --smoke runs every axis once at SF 0.002 (a correctness run, for CI: any
// failing execution exits 1 with its cause); --json emits the
// machine-readable document persisted as BENCH_e13_exec_throughput.json.
#include <chrono>
#include <thread>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

struct Workload {
  const char* name;
  const char* sql;
};

constexpr Workload kWorkloads[] = {
    // Scan-heavy: stream every lineitem through a hash-join probe against
    // the small supplier table and a projection — a pipeline of operators
    // with no aggregation, dominated by per-row interpretation.
    {"scan",
     "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
     "from lineitem l, supplier s "
     "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0"},
    // Aggregate-heavy: fold the same rows into a grouped aggregation.
    {"aggregate",
     "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
     "from lineitem l group by l.l_suppkey"},
    // The same fold into many more groups (one per part), where the group
    // tables, not the input, bound the cost and the partial merge is large.
    {"aggregate_wide",
     "select l.l_partkey, sum(l.l_quantity), count(*) "
     "from lineitem l group by l.l_partkey"},
    // Filter-heavy: a wide conjunction evaluated in full on (almost) every
    // row — the leading conjuncts are always true on the generated data and
    // the selective one (l_quantity is uniform 1..50, so >= 49 keeps ~4% of
    // rows) comes last, so per-row predicate evaluation is essentially the
    // whole cost. A permissive or leading-selective filter would instead
    // measure row projection / short-circuited row access.
    {"filter",
     "select l.l_orderkey, l.l_extendedprice from lineitem l "
     "where l.l_suppkey > 0 and l.l_partkey > 0 and l.l_orderkey > 0 "
     "and l.l_extendedprice > 1000 and l.l_discount >= 0 "
     "and l.l_shipdate >= 0 and l.l_quantity >= 49"},
};

constexpr int kBatchSizes[] = {1, 64, 256, 1024, 4096};
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kNumThreadCounts = 4;
constexpr int kReps = 5;

double RunOnce(const PlanPtr& plan, const Query& query, int batch_size,
               int threads, bool traced) {
  RuntimeStatsCollector stats;
  ExecContext ctx = ExecContext{}
                        .WithBatchSize(batch_size)
                        .WithThreads(threads)
                        .WithStats(traced ? &stats : nullptr);
  auto start = std::chrono::steady_clock::now();
  auto result = ExecutePlan(plan, query, ctx);
  auto stop = std::chrono::steady_clock::now();
  CheckOk(result.status(), "executing the plan");
  return std::chrono::duration<double>(stop - start).count();
}

Result<OptimizedQuery> Prepare(const TpcdDb& db, const Workload& w) {
  auto query = ParseAndBind(*db.catalog, w.sql);
  CheckOk(query.status(), "parsing and binding", w.name);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  CheckOk(optimized.status(), "optimizing", w.name);
  return optimized;
}

std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

std::string Ratio(double num, double den) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", num / den);
  return buf;
}

/// Times `w` at every point of axis `axis`: `points` (batch size, threads)
/// pairs, plain and traced, `reps` interleaved repetitions after one
/// untimed warm-up at `warm_up`; emits one row per point with the min and
/// median over the repetitions and speedups from point 0's minima.
void RunAxis(const char* axis, const TpcdDb& db, const Workload& w,
             const std::vector<std::pair<int, int>>& points,
             std::pair<int, int> warm_up, int reps, int64_t lineitems,
             ResultWriter* table) {
  auto optimized = Prepare(db, w);
  const size_t n = points.size();
  std::vector<std::vector<double>> plain(n), traced(n);
  RunOnce(optimized->plan, optimized->query, warm_up.first, warm_up.second,
          false);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t s = 0; s < n; ++s) {
      const auto [batch_size, threads] = points[s];
      plain[s].push_back(RunOnce(optimized->plan, optimized->query,
                                 batch_size, threads, /*traced=*/false));
      traced[s].push_back(RunOnce(optimized->plan, optimized->query,
                                  batch_size, threads, /*traced=*/true));
    }
  }
  const MinMedian plain0 = MinAndMedian(plain[0]);
  const MinMedian traced0 = MinAndMedian(traced[0]);
  for (size_t s = 0; s < n; ++s) {
    const MinMedian p = MinAndMedian(plain[s]);
    const MinMedian t = MinAndMedian(traced[s]);
    char rps[32];
    std::snprintf(rps, sizeof(rps), "%.0f",
                  static_cast<double>(lineitems) / p.min);
    table->Row({axis, w.name, Fmt(static_cast<int64_t>(points[s].first)),
                Fmt(static_cast<int64_t>(points[s].second)), Fmt(lineitems),
                Ms(p.min), Ms(p.median), rps, Ratio(plain0.min, p.min),
                Ms(t.min), Ratio(traced0.min, t.min)});
  }
}

/// Axis 3: the six TPC-D statements end to end through Server — SQL text
/// in, rows out — on one Server per thread count, every Sql() a plan-cache
/// hit after the first. The servers share one generated data set. Reps are
/// interleaved across statements and thread counts; a "total" row sums the
/// six statements of each rep.
void RunTpcdAxis(bool smoke, int reps, ResultWriter* table) {
  DbgenOptions options;
  // SF 0.05 is perfbench olap_hot's data (~300k lineitems).
  options.scale_factor = smoke ? 0.002 : 0.05;
  TpcdDb db = MakeTpcdDb(options);
  const std::vector<tpcd_queries::NamedQuery> queries =
      tpcd_queries::AllQueries();
  std::vector<std::unique_ptr<Server>> servers;
  for (int threads : kThreadCounts) {
    ServerOptions server_options;
    server_options.threads = threads;
    servers.push_back(std::make_unique<Server>(server_options));
    Catalog& catalog = servers.back()->catalog();
    CheckOk(CreateTpcdSchema(&catalog).status(), "creating the TPC-D schema");
    for (TableId id = 0; id < db.catalog->num_tables(); ++id) {
      TableDef& def = catalog.mutable_table(id);
      def.data = db.catalog->table(id).data;
      def.stats = db.catalog->table(id).stats;
    }
  }
  // The short label of a statement: the first word of its display name.
  auto label = [](const std::string& name) {
    return "tpcd/" + name.substr(0, name.find(' '));
  };
  // times[q][s]: statement q at thread count s, one entry per rep.
  std::vector<std::vector<std::vector<double>>> times(
      queries.size(), std::vector<std::vector<double>>(kNumThreadCounts));
  std::vector<int64_t> result_rows(queries.size(), 0);
  auto execute = [&](size_t q, int s) {
    ServerSession conn = servers[static_cast<size_t>(s)]->Connect();
    auto start = std::chrono::steady_clock::now();
    auto prepared = conn.Sql(queries[q].sql);
    CheckOk(prepared.status(), "preparing", queries[q].name.c_str());
    auto result = prepared->Execute();
    auto stop = std::chrono::steady_clock::now();
    CheckOk(result.status(), "executing", queries[q].name.c_str());
    result_rows[q] = static_cast<int64_t>(result->rows.size());
    return std::chrono::duration<double>(stop - start).count();
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    for (int s = 0; s < kNumThreadCounts; ++s) execute(q, s);  // warm-up
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t q = 0; q < queries.size(); ++q) {
      for (int s = 0; s < kNumThreadCounts; ++s) {
        times[q][static_cast<size_t>(s)].push_back(execute(q, s));
      }
    }
  }
  auto emit = [&](const std::string& name, int64_t rows,
                  const std::vector<std::vector<double>>& by_threads) {
    const MinMedian serial = MinAndMedian(by_threads[0]);
    for (int s = 0; s < kNumThreadCounts; ++s) {
      const MinMedian m = MinAndMedian(by_threads[static_cast<size_t>(s)]);
      table->Row({"tpcd", name, Fmt(static_cast<int64_t>(kDefaultBatchSize)),
                  Fmt(static_cast<int64_t>(kThreadCounts[s])), Fmt(rows),
                  Ms(m.min), Ms(m.median), "-", Ratio(serial.min, m.min), "-",
                  "-"});
    }
  };
  std::vector<std::vector<double>> total(kNumThreadCounts,
                                         std::vector<double>(reps, 0.0));
  int64_t total_rows = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    emit(label(queries[q].name), result_rows[q], times[q]);
    total_rows += result_rows[q];
    for (int s = 0; s < kNumThreadCounts; ++s) {
      for (int rep = 0; rep < reps; ++rep) {
        total[static_cast<size_t>(s)][static_cast<size_t>(rep)] +=
            times[q][static_cast<size_t>(s)][static_cast<size_t>(rep)];
      }
    }
  }
  emit("tpcd/total", total_rows, total);
}

void Run(bool json, bool smoke) {
  if (!json) {
    Banner("E13",
           "batch execution throughput (rows/sec vs batch size, threads)");
  }
  const int reps = smoke ? 1 : kReps;
  ResultWriter table(json, "E13",
                     {"axis", "workload", "batch_size", "threads", "rows",
                      "plain_ms", "plain_median_ms", "rows_per_sec",
                      "plain_speedup", "traced_ms", "traced_speedup"},
                     17);
  {
    DbgenOptions options;
    // ~120k lineitems: enough work to time; ~12k for a smoke run.
    options.scale_factor = smoke ? 0.002 : 0.02;
    TpcdDb db = MakeTpcdDb(options);
    int64_t lineitems =
        db.catalog->table(db.tables.lineitem).data->row_count();

    // Axis 1: batch size (serial execution).
    std::vector<std::pair<int, int>> sizes;
    for (int b : kBatchSizes) sizes.emplace_back(b, 1);
    for (const Workload& w : kWorkloads) {
      RunAxis("batch", db, w, sizes, sizes[0], reps, lineitems, &table);
    }
    // Axis 2: worker count at the default batch size. The speedup baseline
    // is the 1-thread entry (same batch size, same plan).
    std::vector<std::pair<int, int>> threads;
    for (int t : kThreadCounts) threads.emplace_back(kDefaultBatchSize, t);
    for (const Workload& w : kWorkloads) {
      RunAxis("threads", db, w, threads, threads.back(), reps, lineitems,
              &table);
    }
  }
  RunTpcdAxis(smoke, reps, &table);

  if (!json) {
    std::printf(
        "\nhost cores: %u (speedup from the threads axis is bounded by this)\n"
        "\nExpected shape: plain_ms stays within a few percent across batch\n"
        "sizes (the plans are one to three operators deep); the traced\n"
        "columns carry the amortization, ~2x on scan and ~2.2x on aggregate\n"
        "from batch 1 to 1024, while the filter plan, a bare scan emitting\n"
        "~4%% of its rows, stays flat. On the threads axis every workload\n"
        "speeds up ~2-3x at 4 threads; more threads than cores gain nothing.\n"
        "On the tpcd axis every statement is faster at 4 threads than\n"
        "serially (~1.3x multi-view to ~3x Q15/pushdown; Q17, whose\n"
        "block-nested-loop join streams lineitem morsel-parallel, ~2.3x);\n"
        "the six-statement total ~2x.\n",
        std::thread::hardware_concurrency());
  }
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main(int argc, char** argv) {
  aggview::bench::Run(aggview::bench::JsonMode(argc, argv),
                      aggview::bench::HasFlag(argc, argv, "--smoke"));
  return 0;
}
