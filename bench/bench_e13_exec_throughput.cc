// Experiment E13 — execution-engine throughput across batch sizes and
// thread counts.
//
// The batch-at-a-time refactor claims that per-row interpretation overhead
// (virtual dispatch, stats clock reads, counter updates) amortizes over the
// batch. This experiment measures it: three TPC-D workloads — a scan-heavy
// projection over lineitem, an aggregate-heavy group-by over the same rows
// and a filter-heavy wide conjunction — run at batch sizes 1 (the old
// Volcano row-at-a-time behaviour), 64, 256, 1024 (default), and 4096. Both
// execution modes are timed: uninstrumented (plain_ms) and with the EXPLAIN
// ANALYZE stats collector installed (traced_ms), where the interpreter pays
// two clock reads per Next per operator and the per-batch amortization is
// decisive.
//
// A second sweep holds the batch size at the default (1024) and varies the
// morsel-driven worker count through 1, 2, 4 and 8: parallel scan morsels,
// partitioned hash-join build and thread-local partial aggregation. The
// speedup column is relative to the 1-thread run of the same workload; it
// can only approach the thread count when the host actually has that many
// cores (the closing line and the JSON host object record them), and the
// results stay byte-identical at every point regardless.
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
// at 4 threads, and 8 threads gain nothing over 4 on a 4-core host.
//
// Repetitions are interleaved round-robin across the axis values (all
// values at rep 0, then all at rep 1, ...) so clock-frequency drift during
// the run cannot systematically favour whichever value is measured first.
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
constexpr int kNumSizes = 5;
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

void Run(bool json, bool smoke) {
  if (!json) {
    Banner("E13",
           "batch execution throughput (rows/sec vs batch size, threads)");
  }

  DbgenOptions options;
  // ~120k lineitems: enough work to time; ~12k for a smoke run.
  options.scale_factor = smoke ? 0.002 : 0.02;
  TpcdDb db = MakeTpcdDb(options);
  const int reps = smoke ? 1 : kReps;
  int64_t lineitems = db.catalog->table(db.tables.lineitem).data->row_count();

  ResultWriter table(json, "E13",
                     {"workload", "batch_size", "threads", "rows",
                      "plain_ms", "rows_per_sec", "plain_speedup", "traced_ms",
                      "traced_speedup"}, 15);

  // Axis 1: batch size (serial execution).
  for (const Workload& w : kWorkloads) {
    auto optimized = Prepare(db, w);

    double plain[kNumSizes], traced[kNumSizes];
    for (int s = 0; s < kNumSizes; ++s) plain[s] = traced[s] = 1e300;
    // Warm-up pass (untimed), then interleaved timed repetitions.
    RunOnce(optimized->plan, optimized->query, kBatchSizes[0], 1, false);
    for (int rep = 0; rep < reps; ++rep) {
      for (int s = 0; s < kNumSizes; ++s) {
        double t = RunOnce(optimized->plan, optimized->query, kBatchSizes[s],
                           1, /*traced=*/false);
        if (t < plain[s]) plain[s] = t;
        t = RunOnce(optimized->plan, optimized->query, kBatchSizes[s], 1,
                    /*traced=*/true);
        if (t < traced[s]) traced[s] = t;
      }
    }

    for (int s = 0; s < kNumSizes; ++s) {
      char pms[32], rps[32], pspd[32], tms[32], tspd[32];
      std::snprintf(pms, sizeof(pms), "%.3f", plain[s] * 1e3);
      std::snprintf(rps, sizeof(rps), "%.0f",
                    static_cast<double>(lineitems) / plain[s]);
      std::snprintf(pspd, sizeof(pspd), "%.2f", plain[0] / plain[s]);
      std::snprintf(tms, sizeof(tms), "%.3f", traced[s] * 1e3);
      std::snprintf(tspd, sizeof(tspd), "%.2f", traced[0] / traced[s]);
      table.Row({w.name, Fmt(static_cast<int64_t>(kBatchSizes[s])),
                 "1", Fmt(lineitems), pms, rps, pspd, tms, tspd});
    }
  }

  // Axis 2: worker count at the default batch size. The speedup baseline
  // is the 1-thread entry (same batch size, same plan).
  for (const Workload& w : kWorkloads) {
    auto optimized = Prepare(db, w);

    double plain[kNumThreadCounts], traced[kNumThreadCounts];
    for (int s = 0; s < kNumThreadCounts; ++s) plain[s] = traced[s] = 1e300;
    RunOnce(optimized->plan, optimized->query, kDefaultBatchSize,
            kThreadCounts[kNumThreadCounts - 1], false);
    for (int rep = 0; rep < reps; ++rep) {
      for (int s = 0; s < kNumThreadCounts; ++s) {
        double t = RunOnce(optimized->plan, optimized->query,
                           kDefaultBatchSize, kThreadCounts[s],
                           /*traced=*/false);
        if (t < plain[s]) plain[s] = t;
        t = RunOnce(optimized->plan, optimized->query, kDefaultBatchSize,
                    kThreadCounts[s], /*traced=*/true);
        if (t < traced[s]) traced[s] = t;
      }
    }

    for (int s = 0; s < kNumThreadCounts; ++s) {
      char pms[32], rps[32], pspd[32], tms[32], tspd[32];
      std::snprintf(pms, sizeof(pms), "%.3f", plain[s] * 1e3);
      std::snprintf(rps, sizeof(rps), "%.0f",
                    static_cast<double>(lineitems) / plain[s]);
      std::snprintf(pspd, sizeof(pspd), "%.2f", plain[0] / plain[s]);
      std::snprintf(tms, sizeof(tms), "%.3f", traced[s] * 1e3);
      std::snprintf(tspd, sizeof(tspd), "%.2f", traced[0] / traced[s]);
      table.Row({w.name, Fmt(static_cast<int64_t>(kDefaultBatchSize)),
                 Fmt(static_cast<int64_t>(kThreadCounts[s])), Fmt(lineitems),
                 pms, rps, pspd, tms, tspd});
    }
  }

  if (!json) {
    std::printf(
        "\nhost cores: %u (speedup from the threads axis is bounded by this)\n"
        "\nExpected shape: plain_ms stays within a few percent across batch\n"
        "sizes (the plans are one to three operators deep); the traced\n"
        "columns carry the amortization, ~2x on scan and ~2.2x on aggregate\n"
        "from batch 1 to 1024, while the filter plan, a bare scan emitting\n"
        "~4%% of its rows, stays flat. On the threads axis every workload\n"
        "speeds up ~2-3x at 4 threads; more threads than cores gain nothing.\n",
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
