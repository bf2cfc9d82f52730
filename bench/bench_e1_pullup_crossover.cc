// Experiment E1 — Example 1 + Figure 1 (the pull-up transformation).
//
// The paper: "if there are many departments but few employees are younger
// than 22 years, then the query B may be more efficient to evaluate than A1
// and A2. However, if there are few departments but many employees below 22
// years old, then execution of A1 and A2 may be significantly less
// expensive."
//
// This harness sweeps the two knobs (department count, age-predicate
// selectivity), forces both strategies — plan A (view computed locally, the
// traditional shape) and plan B (group-by pulled up past the e1 join) — and
// reports estimated + measured IO for each alongside what the cost-based
// optimizer picks. The expected shape: B wins in the many-departments /
// few-young corner; A wins in the few-departments / many-young corner; the
// optimizer's pick always matches the cheaper column.
//
// --smoke runs the same sweep over 3000 employees (a correctness run, for
// CI: any failing step exits 1 with its cause).
#include "bench_util.h"
#include "transform/pullup.h"

namespace aggview {
namespace bench {
namespace {

std::string Example1Sql(int age_cutoff) {
  return R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, a1 b
where e1.dno = b.dno and e1.age < )sql" +
         std::to_string(age_cutoff) + " and e1.sal > b.asal";
}

/// Forces plan B: applies the pull-up rewrite, then evaluates the resulting
/// single-block query literally (joins first, one group-by on top — no
/// push-down that would re-derive plan A).
RunOutcome RunPlanB(const Catalog& catalog, const std::string& sql) {
  auto query = ParseAndBind(catalog, sql);
  CheckOk(query.status(), "parsing and binding the query");
  auto pulled = PullUpIntoView(*query, 0, {query->base_rels()[0]});
  CheckOk(pulled.status(), "pulling the group-by up");
  OptimizerOptions options = TraditionalOptions();
  auto optimized = OptimizeQueryWithAggViews(*pulled, options);
  CheckOk(optimized.status(), "optimizing the query");
  RunOutcome out;
  out.estimated = optimized->plan->cost;
  IoAccountant io;
  auto result = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithIo(&io));
  CheckOk(result.status(), "executing the plan");
  out.measured = io.total();
  return out;
}

void Run(bool smoke) {
  const int64_t employees = smoke ? 3'000 : 60'000;
  Banner("E1", "pull-up crossover (paper Example 1 / Figure 1)");
  std::printf(
      "planA = traditional (view computed locally), planB = pulled-up "
      "single block.\nemp rows fixed at %lld; ages uniform in [18,65].\n\n",
      static_cast<long long>(employees));

  TablePrinter table({"depts", "age<", "sel%", "A_est", "B_est", "A_io",
                      "B_io", "opt_pick", "opt_est"});

  for (int64_t depts : {50, 1000, 20000}) {
    for (int age_cutoff : {20, 30, 55}) {
      EmpDeptOptions data;
      data.num_employees = employees;
      data.num_departments = depts;
      data.young_fraction = 4.0 / 48.0;  // ages effectively uniform 18..65
      EmpDeptDb db = MakeEmpDeptDb(data);
      std::string sql = Example1Sql(age_cutoff);

      RunOutcome a = RunConfig(*db.catalog, sql, TraditionalOptions());
      RunOutcome b = RunPlanB(*db.catalog, sql);
      RunOutcome opt = RunConfig(*db.catalog, sql, OptimizerOptions{});

      double sel = (age_cutoff - 18) / 48.0 * 100.0;
      std::string pick =
          opt.description.find("{e1}") != std::string::npos ? "pull-up(B)"
          : opt.description == "traditional two-phase"      ? "trad(A)"
                                                            : "local(A)";
      table.Row({Fmt(depts), Fmt(static_cast<int64_t>(age_cutoff)), Fmt(sel),
                 Fmt(a.estimated), Fmt(b.estimated), Fmt(a.measured),
                 Fmt(b.measured), pick, Fmt(opt.estimated)});
    }
  }
  std::printf(
      "\nExpected shape (paper): B cheaper at many departments + selective "
      "age predicate;\nA cheaper at few departments + unselective predicate; "
      "opt_est = min(A,B) column.\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main(int argc, char** argv) {
  aggview::bench::Run(aggview::bench::HasFlag(argc, argv, "--smoke"));
  return 0;
}
