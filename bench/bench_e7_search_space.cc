// Experiment E7 — the cost of the richer execution space (Section 5.3's
// "Practical Restrictions on the Search Space" and Section 5.2's "very
// moderate increase in search space").
//
// The query joins one aggregate view with n base relations chained through
// shared predicates. For each n we count joinplan() invocations under:
//   traditional        — two-phase, no transformations;
//   greedy             — + linear aggregate join trees (push-down);
//   k=1 / k=2 pull-up  — + pull-up subsets of bounded size, sharing a
//                        predicate with the view (the paper's restrictions);
//   unrestricted       — pull-up subsets of any relation, any size <= 3.
#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

std::string ChainQuery(int n_base) {
  // v(avg sal per dept) joined with e1; d_i relations chain off e1/dept.
  std::string sql = R"sql(
create view v (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, v)sql";
  for (int i = 0; i < n_base; ++i) {
    sql += ", dept d" + std::to_string(i);
  }
  sql += "\nwhere e1.dno = v.dno and e1.sal > v.asal";
  for (int i = 0; i < n_base; ++i) {
    sql += " and e1.dno = d" + std::to_string(i) + ".dno";
  }
  return sql;
}

int64_t CountJoins(const Catalog& catalog, const std::string& sql,
                   const OptimizerOptions& options) {
  auto query = ParseAndBind(catalog, sql);
  CheckOk(query.status(), "parsing and binding the query");
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing the query");
  return optimized->counters.joins_considered;
}

void Run() {
  Banner("E7", "search-space growth and the paper's restrictions (5.2/5.3)");
  std::printf("cells = joinplan() invocations (lower = smaller search space)\n\n");

  EmpDeptOptions data;
  data.num_employees = 4'000;
  data.num_departments = 100;
  EmpDeptDb db = MakeEmpDeptDb(data);

  TablePrinter table({"base_rels", "traditional", "greedy", "pullup_k1",
                      "pullup_k2", "unrestricted"});

  for (int n = 1; n <= 5; ++n) {
    std::string sql = ChainQuery(n);

    OptimizerOptions trad = TraditionalOptions();

    OptimizerOptions greedy = TraditionalOptions();
    greedy.enumerator = EnumeratorOptions{};
    greedy.shrink_views = true;

    OptimizerOptions k1;
    k1.max_pullup = 1;
    k1.include_traditional_alternative = false;

    OptimizerOptions k2;
    k2.max_pullup = 2;
    k2.include_traditional_alternative = false;

    OptimizerOptions open;
    open.max_pullup = 3;
    open.require_shared_predicate = false;
    open.include_traditional_alternative = false;

    table.Row({Fmt(static_cast<int64_t>(n + 1)),
               Fmt(CountJoins(*db.catalog, sql, trad)),
               Fmt(CountJoins(*db.catalog, sql, greedy)),
               Fmt(CountJoins(*db.catalog, sql, k1)),
               Fmt(CountJoins(*db.catalog, sql, k2)),
               Fmt(CountJoins(*db.catalog, sql, open))});
  }
  std::printf(
      "\nExpected shape: 'greedy' stays within a small factor of\n"
      "'traditional' (the paper's moderate increase); pull-up grows with k\n"
      "and explodes without the shared-predicate restriction.\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main() {
  aggview::bench::Run();
  return 0;
}
