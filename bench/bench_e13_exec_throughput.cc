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
// morsel-driven worker count through 1, 2, 4 and 8 under both backends:
// parallel scan morsels, partitioned hash-join build and thread-local
// partial aggregation. The speedup column is relative to the 1-thread run
// of the same workload and backend; it can only approach the thread count
// when the host actually has that many cores (the closing line and the JSON
// host object record them), and the results stay byte-identical at every
// point regardless.
// Comparing plain_ms across the backends at one thread count shows whether
// compiled execution is ever slower than interpreted.
//
// A third sweep compares the execution backends at a fixed geometry:
// every workload runs serially at batch sizes 1 and 1024 under both the
// Volcano batch interpreter and the compiling backend, which swaps bytecode
// programs into the same operators (scan filters, a kFilter residual fused
// onto its scan, join residuals, HAVING). plain_speedup is
// compiled-vs-interpreted at the same batch size. The filter workload is
// the one bytecode targets; there is no fused aggregate kernel, both
// backends group with HashAggregateOp, so on the predicate-free aggregate
// workload compiled and interpreted run the same code.
//
// Repetitions are interleaved round-robin across the axis values (all
// values at rep 0, then all at rep 1, ...) so clock-frequency drift during
// the run cannot systematically favour whichever value is measured first.
// A fourth sweep prices the bytecode verifier (exec/compile/verifier.h):
// the one-time prepare path (parse + bind + optimize + lower, where lowering
// compiles and verifies every bytecode program) is timed with verification
// off, on, and paranoid. The claim is that `on` stays within 5% of `off` at
// prepare time (plain_speedup >= 0.95 on the verify rows) and that per-row
// execution cost is zero (the traced_ms full-execution column is
// mode-independent, traced_speedup ~1). Steady-state prepare pays only the
// verifier's content-keyed memo lookup: a program is proved once per
// process, and re-lowering the identical (program, source, layout, mode)
// tuple replays the stored verdict — the burst below is exactly the plan
// cache's re-prepare pattern, so the first iteration pays the full proof
// and the min-over-reps reports the amortized cost.
//
// --smoke runs every axis once at SF 0.002 (a correctness run, for CI: any
// failing execution exits 1 with its cause); --json emits the
// machine-readable document persisted as BENCH_e13_exec_throughput.json.
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "exec/lowering.h"

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
    // whole cost. That is what the bytecode compiler targets; a permissive
    // or leading-selective filter would instead measure row projection /
    // short-circuited row access, identical under both backends.
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
constexpr int kPrepareBurst = 10;  // prepares per timed verify-axis sample

double RunOnce(const PlanPtr& plan, const Query& query, int batch_size,
               int threads, bool traced,
               ExecBackend backend = ExecBackend::kInterpret) {
  RuntimeStatsCollector stats;
  ExecContext ctx = ExecContext{}
                        .WithBatchSize(batch_size)
                        .WithThreads(threads)
                        .WithBackend(backend)
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
  const int prepare_burst = smoke ? 1 : kPrepareBurst;
  int64_t lineitems = db.catalog->table(db.tables.lineitem).data->row_count();

  ResultWriter table(json, "E13",
                     {"workload", "backend", "batch_size", "threads", "rows",
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
      table.Row({w.name, "interpret", Fmt(static_cast<int64_t>(kBatchSizes[s])),
                 "1", Fmt(lineitems), pms, rps, pspd, tms, tspd});
    }
  }

  // Axis 2: worker count at the default batch size, under both backends.
  // The speedup baseline is the 1-thread entry of the same backend (same
  // batch size, same plan); plain_ms compares the backends at equal thread
  // counts.
  constexpr ExecBackend kBackends[] = {ExecBackend::kInterpret,
                                       ExecBackend::kCompiled};
  for (const Workload& w : kWorkloads) {
    auto optimized = Prepare(db, w);

    double plain[2][kNumThreadCounts], traced[2][kNumThreadCounts];
    for (int b = 0; b < 2; ++b) {
      for (int s = 0; s < kNumThreadCounts; ++s) {
        plain[b][s] = traced[b][s] = 1e300;
      }
      RunOnce(optimized->plan, optimized->query, kDefaultBatchSize,
              kThreadCounts[kNumThreadCounts - 1], false, kBackends[b]);
    }
    for (int rep = 0; rep < reps; ++rep) {
      for (int s = 0; s < kNumThreadCounts; ++s) {
        for (int b = 0; b < 2; ++b) {
          double t = RunOnce(optimized->plan, optimized->query,
                             kDefaultBatchSize, kThreadCounts[s],
                             /*traced=*/false, kBackends[b]);
          if (t < plain[b][s]) plain[b][s] = t;
          t = RunOnce(optimized->plan, optimized->query, kDefaultBatchSize,
                      kThreadCounts[s], /*traced=*/true, kBackends[b]);
          if (t < traced[b][s]) traced[b][s] = t;
        }
      }
    }

    for (int b = 0; b < 2; ++b) {
      for (int s = 0; s < kNumThreadCounts; ++s) {
        char pms[32], rps[32], pspd[32], tms[32], tspd[32];
        std::snprintf(pms, sizeof(pms), "%.3f", plain[b][s] * 1e3);
        std::snprintf(rps, sizeof(rps), "%.0f",
                      static_cast<double>(lineitems) / plain[b][s]);
        std::snprintf(pspd, sizeof(pspd), "%.2f", plain[b][0] / plain[b][s]);
        std::snprintf(tms, sizeof(tms), "%.3f", traced[b][s] * 1e3);
        std::snprintf(tspd, sizeof(tspd), "%.2f",
                      traced[b][0] / traced[b][s]);
        table.Row({w.name, ExecBackendName(kBackends[b]),
                   Fmt(static_cast<int64_t>(kDefaultBatchSize)),
                   Fmt(static_cast<int64_t>(kThreadCounts[s])), Fmt(lineitems),
                   pms, rps, pspd, tms, tspd});
      }
    }
  }

  // Axis 3: execution backend (serial, batch sizes 1 and 1024). The
  // plain_speedup column here is compiled-over-interpreted at the same
  // batch size — the number the bytecode programs are accountable for.
  constexpr int kBackendBatches[] = {1, kDefaultBatchSize};
  for (const Workload& w : kWorkloads) {
    auto optimized = Prepare(db, w);

    double plain[2][2], traced[2][2];
    for (int b = 0; b < 2; ++b) {
      for (int s = 0; s < 2; ++s) plain[b][s] = traced[b][s] = 1e300;
    }
    RunOnce(optimized->plan, optimized->query, kDefaultBatchSize, 1, false,
            ExecBackend::kCompiled);
    for (int rep = 0; rep < reps; ++rep) {
      for (int b = 0; b < 2; ++b) {
        for (int s = 0; s < 2; ++s) {
          double t = RunOnce(optimized->plan, optimized->query,
                             kBackendBatches[s], 1, /*traced=*/false,
                             kBackends[b]);
          if (t < plain[b][s]) plain[b][s] = t;
          t = RunOnce(optimized->plan, optimized->query, kBackendBatches[s], 1,
                      /*traced=*/true, kBackends[b]);
          if (t < traced[b][s]) traced[b][s] = t;
        }
      }
    }

    for (int b = 0; b < 2; ++b) {
      for (int s = 0; s < 2; ++s) {
        char pms[32], rps[32], pspd[32], tms[32], tspd[32];
        std::snprintf(pms, sizeof(pms), "%.3f", plain[b][s] * 1e3);
        std::snprintf(rps, sizeof(rps), "%.0f",
                      static_cast<double>(lineitems) / plain[b][s]);
        std::snprintf(pspd, sizeof(pspd), "%.2f", plain[0][s] / plain[b][s]);
        std::snprintf(tms, sizeof(tms), "%.3f", traced[b][s] * 1e3);
        std::snprintf(tspd, sizeof(tspd), "%.2f",
                      traced[0][s] / traced[b][s]);
        table.Row({w.name, ExecBackendName(kBackends[b]),
                   Fmt(static_cast<int64_t>(kBackendBatches[s])), "1",
                   Fmt(lineitems), pms, rps, pspd, tms, tspd});
      }
    }
  }

  // Axis 4: bytecode verification cost. plain_ms times the one-time prepare
  // path — parse + bind + optimize + lower (the lowering compiles and
  // verifies every bytecode program) — averaged over a burst; traced_ms
  // times a full compiled execution under the same mode. The backend column
  // names the verify mode; the off rows are the baseline of both speedups.
  constexpr BytecodeVerifyMode kVerifyModes[] = {BytecodeVerifyMode::kOff,
                                                 BytecodeVerifyMode::kOn,
                                                 BytecodeVerifyMode::kParanoid};
  constexpr const char* kVerifyLabels[] = {"vfy=off", "vfy=on",
                                           "vfy=paranoid"};
  for (const Workload& w : kWorkloads) {
    auto optimized = Prepare(db, w);

    double prepare[3], exec[3];
    for (int m = 0; m < 3; ++m) prepare[m] = exec[m] = 1e300;
    RunOnce(optimized->plan, optimized->query, kDefaultBatchSize, 1, false,
            ExecBackend::kCompiled);
    for (int rep = 0; rep < reps; ++rep) {
      for (int m = 0; m < 3; ++m) {
        ExecContext ctx = ExecContext{}
                              .WithBackend(ExecBackend::kCompiled)
                              .WithBytecodeVerify(kVerifyModes[m]);
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < prepare_burst; ++i) {
          auto prepared = Prepare(db, w);
          auto op = LowerPlan(prepared->plan, prepared->query, ctx);
          CheckOk(op.status(), "lowering", w.name);
        }
        auto stop = std::chrono::steady_clock::now();
        double t = std::chrono::duration<double>(stop - start).count() /
                   prepare_burst;
        if (t < prepare[m]) prepare[m] = t;

        RuntimeStatsCollector stats;
        ExecContext run_ctx = ExecContext{}
                                  .WithBackend(ExecBackend::kCompiled)
                                  .WithBytecodeVerify(kVerifyModes[m])
                                  .WithBatchSize(kDefaultBatchSize);
        start = std::chrono::steady_clock::now();
        auto result = ExecutePlan(optimized->plan, optimized->query, run_ctx);
        stop = std::chrono::steady_clock::now();
        CheckOk(result.status(), "executing the plan", w.name);
        t = std::chrono::duration<double>(stop - start).count();
        if (t < exec[m]) exec[m] = t;
      }
    }

    for (int m = 0; m < 3; ++m) {
      char pms[32], rps[32], pspd[32], tms[32], tspd[32];
      std::snprintf(pms, sizeof(pms), "%.4f", prepare[m] * 1e3);
      std::snprintf(rps, sizeof(rps), "%.0f",
                    static_cast<double>(lineitems) / exec[m]);
      std::snprintf(pspd, sizeof(pspd), "%.2f", prepare[0] / prepare[m]);
      std::snprintf(tms, sizeof(tms), "%.3f", exec[m] * 1e3);
      std::snprintf(tspd, sizeof(tspd), "%.2f", exec[0] / exec[m]);
      table.Row({w.name, kVerifyLabels[m],
                 Fmt(static_cast<int64_t>(kDefaultBatchSize)), "1",
                 Fmt(lineitems), pms, rps, pspd, tms, tspd});
    }
  }

  if (!json) {
    std::printf(
        "\nhost cores: %u (speedup from the threads axis is bounded by this)\n"
        "\nExpected shape: batch sizes >= 256 beat size 1 in both modes and\n"
        "the curve flattens once per-batch costs are amortized. The traced\n"
        "columns show the larger effect: at size 1 the interpreter pays two\n"
        "clock reads per operator per row, at 1024 per thousand rows. On the\n"
        "threads axis the scan workload scales with cores (morsel-parallel\n"
        "probe pipeline); the aggregate workload scales until the serial\n"
        "merge of partial group states dominates. At every thread count the\n"
        "compiled rows are no slower than the interpreted ones: both\n"
        "backends run the same operators, compiled only swaps predicate\n"
        "evaluation. On the backend axis the compiled filter rows should\n"
        "clear 2x the interpreted rows/sec at batch 1024: bytecode\n"
        "predicates drop the per-row virtual Eval calls and the residual\n"
        "filter runs inside the scan. The aggregate workload has no\n"
        "predicate, so there compiled and interpreted run the same code and\n"
        "take the same time. On the verify axis plain_ms is the\n"
        "one-time prepare cost (parse + bind + optimize + lower): vfy=on\n"
        "and vfy=paranoid stay within 5%% of vfy=off (plain_speedup >=\n"
        "0.95) because a program is proved once per process and identical\n"
        "re-lowerings replay the memoized verdict, and traced_ms — a full\n"
        "execution — is mode-independent, because verification never\n"
        "touches the per-row path.\n",
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
