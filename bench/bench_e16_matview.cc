// Experiment E16 — materialized aggregate views, end to end.
//
// The materialized-view subsystem makes two performance claims:
//
//  1. Serving: a query answered from a materialized view's backing table
//     reads |groups| pre-aggregated rows instead of folding the base table,
//     so view-answered execution beats the base plan and the gap widens
//     with table size.
//  2. Maintenance: applying a base-table delta through per-group
//     incremental maintenance (view/maintenance.h) costs O(|delta|), while
//     REFRESH re-materializes from the full base table at O(|table|) —
//     incremental refresh must beat full re-materialization for small
//     deltas.
//
// Axis 1 (serve rows): at each emp scale, two Servers over byte-identical
// generated data — one serving through a CREATE MATERIALIZED VIEW, one with
// view answering disabled — execute the same grouped aggregation. Latencies
// pool across repetitions for the p50 columns; the fingerprints of every
// pair of results must match or the run aborts.
//
// Axis 1b (stats rows): at each emp scale, the exact statistics recompute
// (ComputeStats over emp) that every delta and every load pays, timed on its
// own: stats_ms is the min and stats_median_ms the median over the
// repetitions.
//
// Axis 2 (maintain rows): on the largest scale, deltas of growing size
// (half inserts, half deletes) are applied through both refresh strategies,
// on two catalogs carrying identical data and the same view. incr_ms is the
// end-to-end time to a fresh view on the incremental path: one
// ApplyTableDelta that mutates the base and merges the delta into the
// backing groups in place. full_ms is the end-to-end time to a fresh view
// without incremental maintenance: the same ApplyTableDelta with the view
// already stale (it only marks it) followed by the REFRESH that
// re-materializes from the whole base table. Both sides pay the identical
// base mutation + exact stats recompute, so the speedup column isolates
// per-group merging vs full re-aggregation — and understates it, since the
// shared base cost is included in both numerators. After the timed
// repetitions each delta size re-checks that the view-rewritten plan and
// the base plan still agree byte for byte on both catalogs. incr_ms and
// full_ms are the min over the repetitions, the *_median_ms columns the
// median.
//
// Axis 2b (maintain_join row): the same comparison for a two-table view,
// emp ⋈ dept grouped by budget, at 16 delta rows. The incremental side runs
// the delta query G(ΔR ⋈ dept) for each delta side, planned by the
// two-phase optimizer, and merges it; the full side re-joins all of emp on
// REFRESH. The speedup is reported, not gated: the exact statistics
// recompute over emp (the stats row) is inside both columns.
//
// Axis 3 (mix rows): the serving mix on bench_e14's harness shape —
// concurrent reader sessions stream the aggregation through one shared
// Server while a writer session applies deltas and periodic REFRESHes.
// view_ms/base_ms are the reader wall clocks with view answering on vs off
// over identical delta sequences; the final states of both servers must
// fingerprint-identically or the run aborts.
//
// --smoke shrinks the scales and repetition counts for CI; --json emits the
// machine-readable document persisted as BENCH_e16_matview.json.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

constexpr const char* kServeSql =
    "select dno, sum(sal), count(*) from emp group by dno";
constexpr const char* kViewDdl =
    "create materialized view mv_dsal (dno, total, cnt) as "
    "select dno, sum(sal), count(*) from emp group by dno";
constexpr const char* kJoinSql =
    "select d.budget, sum(e.sal), count(*) from emp e, dept d "
    "where e.dno = d.dno group by d.budget";
constexpr const char* kJoinViewDdl =
    "create materialized view mv_budget (budget, total, cnt) as "
    "select d.budget, sum(e.sal), count(*) from emp e, dept d "
    "where e.dno = d.dno group by d.budget";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// p in [0, 1]; `sorted` ascending, non-empty.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

std::string Ms(double seconds, int decimals = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, seconds * 1e3);
  return buf;
}

std::string F2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

EmpDeptOptions Scale(int64_t n_emp) {
  EmpDeptOptions options;
  options.num_employees = n_emp;
  options.num_departments = 200;
  options.seed = 7;  // both servers of a scale must generate identical data
  return options;
}

EmpDeptTables PopulateEmpDept(Catalog* catalog,
                              const EmpDeptOptions& options) {
  auto tables = CreateEmpDeptSchema(catalog);
  CheckOk(tables.status(), "creating the emp/dept schema");
  CheckOk(GenerateEmpDeptData(catalog, *tables, options),
          "generating emp/dept data");
  return *tables;
}

/// Executes `sql` against `catalog`, answered from materialized views when
/// `use_views` and one matches (the fuzzer's differential recipe).
std::string FingerprintOf(const Catalog& catalog, const char* sql,
                          bool use_views) {
  auto query = ParseAndBind(catalog, sql);
  CheckOk(query.status(), "parsing and binding the query");
  if (use_views) {
    std::vector<ViewRewriteCertificate> certs;
    auto rewrites = RewriteWithMaterializedViews(catalog, &*query, &certs);
    CheckOk(rewrites.status(), "rewriting over materialized views");
    if (*rewrites != 1) {
      CheckOk(Status::Internal("expected exactly one view rewrite"),
              "rewriting over materialized views");
    }
  }
  auto optimized = OptimizeTraditional(*query);
  CheckOk(optimized.status(), "optimizing the query");
  auto result = ExecutePlan(optimized->plan, optimized->query, ExecContext{});
  CheckOk(result.status(), "executing the plan");
  return result->Fingerprint();
}

void Run(bool json, bool smoke) {
  if (!json) {
    Banner("E16", "materialized views: serving speedup + incremental upkeep");
  }

  const std::vector<int64_t> emp_scales =
      smoke ? std::vector<int64_t>{20'000}
            : std::vector<int64_t>{50'000, 200'000};
  const std::vector<int64_t> delta_sizes =
      smoke ? std::vector<int64_t>{16, 128}
            : std::vector<int64_t>{16, 256, 4'096};
  const int serve_reps = smoke ? 10 : 30;
  const int maintain_reps = smoke ? 3 : 5;
  const int stats_reps = smoke ? 3 : 9;

  ResultWriter table(json, "E16",
                     {"row", "n_emp", "delta_rows", "stats_ms",
                      "stats_median_ms", "incr_ms", "incr_median_ms",
                      "full_ms", "full_median_ms", "view_ms", "base_ms",
                      "speedup"},
                     /*width=*/16);

  // ---- Axis 1: view-answered vs base-plan serving latency ----
  for (int64_t n_emp : emp_scales) {
    ServerOptions view_options;
    Server view_server(view_options);
    PopulateEmpDept(&view_server.catalog(), Scale(n_emp));

    ServerOptions base_options;
    base_options.use_materialized_views = false;
    Server base_server(base_options);
    const EmpDeptTables base_tables =
        PopulateEmpDept(&base_server.catalog(), Scale(n_emp));

    ServerSession view_conn = view_server.Connect();
    ServerSession base_conn = base_server.Connect();
    CheckOk(view_conn.ExecuteDdl(kViewDdl).status(), "creating the view");

    auto view_query = view_conn.Sql(kServeSql);
    auto base_query = base_conn.Sql(kServeSql);
    CheckOk(view_query.status(), "preparing the query", "on the view server");
    CheckOk(base_query.status(), "preparing the query", "on the base server");
    if (!view_query->view_backed() || base_query->view_backed()) {
      CheckOk(Status::Internal("unexpected plan provenance"),
              "preparing the serve axis");
    }

    std::vector<double> view_lat, base_lat;
    for (int rep = 0; rep < serve_reps; ++rep) {
      double start = Now();
      auto from_view = view_query->Execute();
      view_lat.push_back(Now() - start);
      start = Now();
      auto from_base = base_query->Execute();
      base_lat.push_back(Now() - start);
      CheckOk(from_view.status(), "executing the query", "from the view");
      CheckOk(from_base.status(), "executing the query", "from the base");
      if (from_view->Fingerprint() != from_base->Fingerprint()) {
        CheckOk(Status::Internal("view/base results diverged"),
                "running the serve axis");
      }
    }
    std::sort(view_lat.begin(), view_lat.end());
    std::sort(base_lat.begin(), base_lat.end());
    const double view_p50 = Percentile(view_lat, 0.50);
    const double base_p50 = Percentile(base_lat, 0.50);
    table.Row({"serve", Fmt(n_emp), "-", "-", "-", "-", "-", "-", "-",
               Ms(view_p50), Ms(base_p50),
               F2(view_p50 > 0 ? base_p50 / view_p50 : 0.0)});

    const Table& emp = *base_server.catalog().table(base_tables.emp).data;
    std::vector<double> stats_lat;
    for (int rep = 0; rep < stats_reps; ++rep) {
      const double start = Now();
      const TableStats stats = ComputeStats(emp);
      stats_lat.push_back(Now() - start);
      if (stats.row_count != n_emp) {
        CheckOk(Status::Internal("statistics miscounted the rows"),
                "running the stats axis");
      }
    }
    const MinMedian stats_ms = MinAndMedian(stats_lat);
    table.Row({"stats", Fmt(n_emp), "-", Ms(stats_ms.min),
               Ms(stats_ms.median), "-", "-", "-", "-", "-", "-", "-"});
  }

  // ---- Axis 2: incremental maintenance vs full re-materialization ----
  const int64_t n_emp = emp_scales.back();
  Catalog incr_catalog;  // delta merged into the backing groups in place
  Catalog full_catalog;  // delta marks the view stale; REFRESH rebuilds it
  const EmpDeptTables tables = PopulateEmpDept(&incr_catalog, Scale(n_emp));
  PopulateEmpDept(&full_catalog, Scale(n_emp));
  CheckOk(ExecuteMatViewStatement(&incr_catalog, kViewDdl).status(),
          "creating the view", "for incremental maintenance");
  CheckOk(ExecuteMatViewStatement(&full_catalog, kViewDdl).status(),
          "creating the view", "for full refresh");

  int64_t next_eno = 10'000'000;
  // Half inserts spread over the departments, half deletes of early rows.
  auto make_delta = [](TableId emp, int64_t delta_rows, int64_t* eno) {
    TableDelta delta;
    delta.table = emp;
    for (int64_t i = 0; i < delta_rows / 2; ++i) {
      delta.inserts.push_back(
          {Value::Int((*eno)++), Value::Int(1 + i % 200),
           Value::Real(static_cast<double>(40'000 + (i % 90) * 1'000)),
           Value::Int(static_cast<int64_t>(21 + i % 44))});
    }
    for (int64_t i = 0; i < delta_rows / 2; ++i) {
      delta.deletes.push_back(2 * i);
    }
    return delta;
  };
  for (size_t a = 0; a < delta_sizes.size(); ++a) {
    const int64_t delta_rows = delta_sizes[a];
    std::vector<double> incr_lat;
    std::vector<double> full_lat;
    for (int rep = 0; rep < maintain_reps; ++rep) {
      const TableDelta delta = make_delta(tables.emp, delta_rows, &next_eno);

      // Incremental path: one call mutates the base and leaves the view
      // fresh via the per-group merge.
      MaintenanceReport report;
      double start = Now();
      Status st = ApplyTableDelta(&incr_catalog, delta, &report);
      const double incr = Now() - start;
      CheckOk(st, "applying the delta", "incrementally");
      if (report.views_maintained != 1) {
        CheckOk(Status::Internal("delta not applied in place"),
                "running the maintain axis");
      }

      // Full path: the pre-staled view skips maintenance, so reaching a
      // fresh view costs the same base mutation plus a REFRESH that
      // re-aggregates the whole table.
      full_catalog.BumpTableEpoch(tables.emp);
      report = MaintenanceReport();
      start = Now();
      st = ApplyTableDelta(&full_catalog, delta, &report);
      CheckOk(st, "applying the delta", "before a full refresh");
      if (report.views_marked_stale != 1) {
        CheckOk(Status::Internal("view not marked stale"),
                "running the maintain axis");
      }
      st = RefreshMaterializedView(&full_catalog, "mv_dsal");
      const double full = Now() - start;
      CheckOk(st, "refreshing the view");
      incr_lat.push_back(incr);
      full_lat.push_back(full);
    }
    for (const Catalog* c : {&incr_catalog, &full_catalog}) {
      if (FingerprintOf(*c, kServeSql, /*use_views=*/true) !=
          FingerprintOf(*c, kServeSql, /*use_views=*/false)) {
        CheckOk(Status::Internal("view/base results diverged"),
                "running the maintain axis");
      }
    }
    const MinMedian incr = MinAndMedian(incr_lat);
    const MinMedian full = MinAndMedian(full_lat);
    table.Row({"maintain", Fmt(n_emp), Fmt(delta_rows), "-", "-",
               Ms(incr.min, 4), Ms(incr.median, 4), Ms(full.min, 4),
               Ms(full.median, 4), "-", "-",
               F2(incr.min > 0 ? full.min / incr.min : 0.0)});
  }

  // ---- Axis 2b: the same for a two-table view, emp ⋈ dept by budget ----
  // The incremental side runs one delta query G(ΔR ⋈ dept) per delta side;
  // the full side re-joins all of emp with dept on REFRESH.
  {
    const int64_t delta_rows = 16;
    Catalog incr_join;
    Catalog full_join;
    const EmpDeptTables join_tables =
        PopulateEmpDept(&incr_join, Scale(n_emp));
    PopulateEmpDept(&full_join, Scale(n_emp));
    CheckOk(ExecuteMatViewStatement(&incr_join, kJoinViewDdl).status(),
            "creating the join view", "for incremental maintenance");
    CheckOk(ExecuteMatViewStatement(&full_join, kJoinViewDdl).status(),
            "creating the join view", "for full refresh");
    std::vector<double> incr_lat;
    std::vector<double> full_lat;
    for (int rep = 0; rep < maintain_reps; ++rep) {
      const TableDelta delta =
          make_delta(join_tables.emp, delta_rows, &next_eno);
      MaintenanceReport report;
      double start = Now();
      Status st = ApplyTableDelta(&incr_join, delta, &report);
      const double incr = Now() - start;
      CheckOk(st, "applying the delta", "to the join view incrementally");
      if (report.views_maintained != 1) {
        CheckOk(Status::Internal("join view delta not applied in place"),
                "running the maintain_join row");
      }
      full_join.BumpTableEpoch(join_tables.emp);
      report = MaintenanceReport();
      start = Now();
      st = ApplyTableDelta(&full_join, delta, &report);
      CheckOk(st, "applying the delta", "before a full join refresh");
      if (report.views_marked_stale != 1) {
        CheckOk(Status::Internal("join view not marked stale"),
                "running the maintain_join row");
      }
      st = RefreshMaterializedView(&full_join, "mv_budget");
      const double full = Now() - start;
      CheckOk(st, "refreshing the join view");
      incr_lat.push_back(incr);
      full_lat.push_back(full);
    }
    for (const Catalog* c : {&incr_join, &full_join}) {
      if (FingerprintOf(*c, kJoinSql, /*use_views=*/true) !=
          FingerprintOf(*c, kJoinSql, /*use_views=*/false)) {
        CheckOk(Status::Internal("join view/base results diverged"),
                "running the maintain_join row");
      }
    }
    const MinMedian incr = MinAndMedian(incr_lat);
    const MinMedian full = MinAndMedian(full_lat);
    table.Row({"maintain_join", Fmt(n_emp), Fmt(delta_rows), "-", "-",
               Ms(incr.min, 4), Ms(incr.median, 4), Ms(full.min, 4),
               Ms(full.median, 4), "-", "-",
               F2(incr.min > 0 ? full.min / incr.min : 0.0)});
  }

  // ---- Axis 3: refresh + read serving mix ----
  const int mix_readers = 4;
  const int mix_reads = smoke ? 5 : 25;        // per reader
  const int mix_writes = smoke ? 4 : 12;       // deltas by the writer
  const int64_t mix_delta_rows = 64;
  auto run_mix = [&](bool use_views) {
    ServerOptions options;
    options.threads = 2;
    options.use_materialized_views = use_views;
    auto server = std::make_unique<Server>(options);
    PopulateEmpDept(&server->catalog(), Scale(n_emp));
    if (use_views) {
      ServerSession ddl = server->Connect();
      CheckOk(ddl.ExecuteDdl(kViewDdl).status(), "creating the view");
    }
    const double start = Now();
    std::vector<std::thread> threads;
    for (int r = 0; r < mix_readers; ++r) {
      threads.emplace_back([&server, mix_reads] {
        ServerSession conn = server->Connect();
        for (int i = 0; i < mix_reads; ++i) {
          auto q = conn.Sql(kServeSql);
          CheckOk(q.status(), "preparing the query", "in a mix reader");
          CheckOk(q->Execute().status(), "executing the query",
                  "in a mix reader");
        }
      });
    }
    std::thread writer([&server, &tables, use_views, mix_writes,
                        mix_delta_rows] {
      ServerSession conn = server->Connect();
      int64_t eno = 50'000'000;  // same sequence under both configurations
      for (int w = 0; w < mix_writes; ++w) {
        TableDelta delta;
        delta.table = tables.emp;
        for (int64_t i = 0; i < mix_delta_rows / 2; ++i) {
          delta.inserts.push_back(
              {Value::Int(eno++), Value::Int(1 + i % 200),
               Value::Real(static_cast<double>(40'000 + (i % 90) * 1'000)),
               Value::Int(static_cast<int64_t>(21 + i % 44))});
        }
        for (int64_t i = 0; i < mix_delta_rows / 2; ++i) {
          delta.deletes.push_back(2 * i);
        }
        CheckOk(conn.ApplyDelta(delta), "applying the delta",
                "in the mix writer");
        if (use_views && w % 2 == 1) {
          auto refreshed = conn.ExecuteDdl("refresh materialized view mv_dsal");
          CheckOk(refreshed.status(), "refreshing the view",
                  "in the mix writer");
        }
      }
    });
    for (std::thread& t : threads) t.join();
    writer.join();
    const double wall = Now() - start;
    ServerSession conn = server->Connect();
    auto q = conn.Sql(kServeSql);
    CheckOk(q.status(), "preparing the query");
    auto result = q->Execute();
    CheckOk(result.status(), "executing the plan");
    return std::make_pair(wall, result->Fingerprint());
  };
  const auto [view_wall, view_fp] = run_mix(/*use_views=*/true);
  const auto [base_wall, base_fp] = run_mix(/*use_views=*/false);
  if (view_fp != base_fp) {
    CheckOk(Status::Internal("final states diverged"),
            "running the mix axis");
  }
  table.Row({"mix", Fmt(n_emp), Fmt(mix_delta_rows), "-", "-", "-", "-", "-",
             "-", Ms(view_wall), Ms(base_wall),
             F2(view_wall > 0 ? base_wall / view_wall : 0.0)});

  if (!json) {
    std::printf(
        "\nExpected shape: serve speedup > 1 and growing with n_emp — the\n"
        "view-backed plan scans |groups| pre-aggregated rows while the base\n"
        "plan folds the whole table. stats_ms grows with n_emp: it is the\n"
        "exact statistics recompute inside every maintain row's incr_ms and\n"
        "full_ms. maintain speedup > 1 at every delta size: the per-group\n"
        "merge touches only the groups the delta hits, while the full path\n"
        "re-aggregates all of emp on every REFRESH; the shared\n"
        "base-mutation cost inside both numbers makes the column a lower\n"
        "bound on the maintenance-path speedup; the same holds for the\n"
        "maintain_join row's two-table view. mix speedup > 1: the\n"
        "readers' wall clock shrinks when the concurrent refresh+read\n"
        "workload answers from the view. Every axis byte-compares\n"
        "view-answered results against base plans (checked).\n");
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
