// Experiment E15 — small-scope prover throughput (DESIGN.md §13).
//
// Measures the bounded model checker on the proof-suite obligations: how
// many canonical databases the scope contains at each row bound, and how
// fast the prover executes-and-compares them (databases/second). Columns:
//   rows      the per-table row bound (scope depth)
//   dbs       canonical databases within the bound (after isomorphism
//             pruning — the number of pairs of executions performed)
//   wall_ms   end-to-end proof time, optimization included
//   db_per_s  verification throughput
// The db counts make the pruning visible: they grow combinatorially with
// the bound but stay far below the raw value-tuple count, which is what
// makes exhaustive checking at rows<=4 a nightly job instead of a dream.
#include <chrono>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

void Run() {
  Banner("E15", "small-scope prover throughput");

  EmpDeptDb db = MakeEmpDeptDb({});

  struct Obligation {
    std::string name;
    std::string sql;
  };
  std::vector<Obligation> obligations = {
      {"invariant", R"sql(
select e.dno, avg(e.sal)
from emp e, dept d
where e.dno = d.dno and d.budget < 1
group by e.dno
)sql"},
      {"pullup", R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, a1 b
where e1.dno = b.dno and e1.age < 1 and e1.sal > b.asal
)sql"},
      {"coalescing", "select count(*) from emp e, dept d where e.dno = d.dno"},
  };

  TablePrinter table({"obligation", "rows", "dbs", "wall_ms", "db_per_s"});
  for (const Obligation& ob : obligations) {
    for (int rows = 1; rows <= 3; ++rows) {
      ProverOptions options;
      options.bounds.max_rows = rows;
      options.name = "bench_" + ob.name;

      auto start = std::chrono::steady_clock::now();
      auto proof = ProveSqlTransformation(db.catalog.get(), ob.sql,
                                          TraditionalOptions(),
                                          OptimizerOptions{}, options);
      auto end = std::chrono::steady_clock::now();
      CheckOk(proof.status(), "proving", ob.name.c_str());
      if (!proof->result.proved) {
        CheckOk(Status::Internal("unexpectedly refuted"), "proving",
                ob.name.c_str());
      }
      double ms = std::chrono::duration<double, std::milli>(end - start).count();
      double per_s = ms > 0.0
                         ? static_cast<double>(proof->result.databases_checked) /
                               (ms / 1000.0)
                         : 0.0;
      table.Row({ob.name, Fmt(static_cast<int64_t>(rows)),
                 Fmt(proof->result.databases_checked), Fmt(ms), Fmt(per_s)});
    }
  }
  std::printf(
      "\nExpected shape: dbs grows combinatorially with rows while db_per_s\n"
      "stays roughly flat — proof cost is execution-bound, so the scope\n"
      "bound is the only knob that matters.\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main() {
  aggview::bench::Run();
  return 0;
}
