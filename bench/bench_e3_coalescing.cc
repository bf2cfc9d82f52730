// Experiment E3 — Figure 2(b) (simple coalescing grouping).
//
// Simple coalescing adds a pre-aggregation G2 below a join and coalesces
// the partial groups with the original group-by G1 on top. Its benefit is
// the data-reduction factor of G2: rows-per-group on the pre-aggregated
// side. This harness uses the fan-out self-join
//
//   SELECT e.dno, SUM(e.sal) FROM emp e, emp f WHERE e.dno = f.dno GROUP BY e.dno
//
// (invariant grouping is inapplicable: the join fans out, SUM would be
// inflated) and sweeps the number of departments, i.e. the reduction
// factor. Lazy = aggregate after the join; eager = pre-aggregate e on dno.
// Expected: eager wins by orders of magnitude at few groups (large
// reduction) and the margin narrows as groups approach the row count.
#include "bench_util.h"
#include "optimizer/join_enumerator.h"

namespace aggview {
namespace bench {
namespace {

bool PlanHasGroupByBelowJoin(const PlanPtr& plan, bool under_join = false) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanNode::Kind::kGroupBy && under_join) return true;
  bool join = under_join || plan->kind == PlanNode::Kind::kJoin;
  return PlanHasGroupByBelowJoin(plan->left, join) ||
         PlanHasGroupByBelowJoin(plan->right, join);
}

void Run() {
  Banner("E3", "simple coalescing grouping (paper Figure 2b)");
  std::printf("emp rows fixed at 24000; sweep = department count (rows/group).\n\n");

  TablePrinter table({"groups", "rows/grp", "lazy_est", "eager_est", "pick",
                      "pick_io", "coalesced?"});

  const int64_t kEmployees = 24'000;
  for (int64_t depts : {20, 200, 2'000, 12'000}) {
    EmpDeptOptions data;
    data.num_employees = kEmployees;
    data.num_departments = depts;
    EmpDeptDb db = MakeEmpDeptDb(data);

    std::string sql =
        "select e.dno, sum(e.sal), count(*) from emp e, emp f "
        "where e.dno = f.dno group by e.dno";

    RunOutcome lazy = RunConfig(*db.catalog, sql, TraditionalOptions());

    auto query = ParseAndBind(*db.catalog, sql);
    CheckOk(query.status(), "parsing and binding the query");
    auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
    CheckOk(optimized.status(), "optimizing the query");
    IoAccountant io;
    auto result = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithIo(&io));
    CheckOk(result.status(), "executing the plan");

    bool coalesced = PlanHasGroupByBelowJoin(optimized->plan);
    table.Row({Fmt(depts), Fmt(static_cast<double>(kEmployees) / depts),
               Fmt(lazy.estimated), Fmt(optimized->plan->cost),
               coalesced ? "eager" : "lazy", Fmt(io.total()),
               coalesced ? "yes" : "no"});
  }
  std::printf(
      "\nExpected shape: eager (pre-aggregated) plan far cheaper at high\n"
      "rows/group; the advantage shrinks as the reduction factor approaches 1.\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main() {
  aggview::bench::Run();
  return 0;
}
