// Plan explorer: prints every execution alternative the optimizer evaluates
// for a query with an aggregate view — the concrete version of the paper's
// Figure 4 — together with the transformations' effects on the query text.
#include <cstdio>

#include "aggview.h"

using namespace aggview;

int main(int argc, char** argv) {
  // The server front door, plus direct use of the analysis layers below it
  // (invariant-grouping analysis and pull-up operate on the bound Query).
  Server server;
  Catalog& catalog = server.catalog();
  auto tables = CreateEmpDeptSchema(&catalog);
  if (!tables.ok()) return 1;
  EmpDeptOptions data;
  data.num_employees = 50'000;
  data.num_departments = 15'000;
  data.young_fraction = 4.0 / 48.0;
  if (!GenerateEmpDeptData(&catalog, *tables, data).ok()) return 1;

  std::string sql = R"sql(
create view c (dno, asal) as
  select e2.dno, avg(e2.sal)
  from emp e2, dept d2
  where e2.dno = d2.dno and d2.budget < 1000000
  group by e2.dno;
select e1.sal
from emp e1, c
where e1.dno = c.dno and e1.age < 22 and e1.sal > c.asal
)sql";
  if (argc > 1) sql = argv[1];

  auto query = ParseAndBind(catalog, sql);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("=== canonical form ===\n%s\n", query->ToString().c_str());

  // Invariant-grouping analysis per view (Section 4.1).
  for (size_t i = 0; i < query->views().size(); ++i) {
    const AggView& view = query->views()[i];
    InvariantAnalysis analysis = AnalyzeInvariantGrouping(*query, view);
    std::printf("view %s: minimal invariant set = {", view.name.c_str());
    bool first = true;
    for (int rel : analysis.minimal_invariant_set) {
      std::printf("%s%s", first ? "" : ", ",
                  query->range_var(rel).alias.c_str());
      first = false;
    }
    std::printf("}, removable = %zu relation(s)\n", analysis.removable.size());
  }

  // The pull-up rewrite (Section 3, Definition 1).
  if (!query->views().empty() && !query->base_rels().empty()) {
    auto pulled = PullUpIntoView(*query, 0, {query->base_rels()[0]});
    if (pulled.ok()) {
      std::printf("\n=== after pull-up of %s into %s ===\n%s\n",
                  query->range_var(query->base_rels()[0]).alias.c_str(),
                  query->views()[0].name.c_str(), pulled->ToString().c_str());
    }
  }

  // Every alternative the two-phase optimizer evaluates (Section 5.3),
  // through the server: Sql() parses, binds and optimizes.
  ServerSession conn = server.Connect();
  auto prepared = conn.Sql(sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("=== alternatives ===\n");
  for (const PlanAlternative& alt : prepared->alternatives()) {
    std::printf("  %-36s est %10.1f%s\n", alt.description.c_str(), alt.cost,
                alt.description == prepared->description() ? "   <-- chosen"
                                                           : "");
  }
  std::printf("\n=== chosen plan ===\n%s",
              PlanToString(prepared->plan(), prepared->query()).c_str());

  auto result = prepared->Execute();
  if (!result.ok()) return 1;
  std::printf("\nexecuted: %zu rows, %lld IO pages (estimated %.1f)\n",
              result->rows.size(),
              static_cast<long long>(prepared->last_io_pages()),
              prepared->plan()->cost);
  auto analyzed = prepared->ExplainAnalyze();
  if (!analyzed.ok()) return 1;
  std::printf("\n=== explain analyze ===\n%s", analyzed->c_str());
  return 0;
}
