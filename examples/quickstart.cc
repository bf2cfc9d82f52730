// Quickstart: start a Server, define a schema, load data, and run a SQL
// query with aggregate views through the cost-based optimizer — in parallel.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>

#include "aggview.h"

using namespace aggview;

int main() {
  // 1. A server owns the catalog, the optimizer configuration, the plan
  //    cache and the worker pool. threads = 4 runs every query's scans, hash
  //    joins and aggregations morsel-parallel on 4 pipeline instances; the
  //    results are identical to threads = 1.
  ServerOptions options;
  options.threads = 4;
  Server server(options);

  // 2. Schema: the paper's running example — emp(eno, dno, sal, age) and
  //    dept(dno, budget), with emp.dno a foreign key into dept.
  auto tables = CreateEmpDeptSchema(&server.catalog());
  if (!tables.ok()) {
    std::fprintf(stderr, "%s\n", tables.status().ToString().c_str());
    return 1;
  }

  // 3. Data: synthetic, deterministic. 20000 employees in 800 departments.
  EmpDeptOptions data;
  data.num_employees = 20'000;
  data.num_departments = 800;
  Status st = GenerateEmpDeptData(&server.catalog(), *tables, data);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // 4. A multi-block query: employees under 22 earning more than their
  //    department's average salary (the paper's Example 1). Sql() parses,
  //    binds and optimizes with the paper's algorithm (pull-up + push-down
  //    + the System-R style enumerator).
  const std::string sql = R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
)sql";

  // A connection is a client's handle on the server; this program is its
  // only client.
  ServerSession conn = server.Connect();
  auto prepared = conn.Sql(sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("estimated IO: %.1f pages\n\n%s\n", prepared->plan()->cost,
              prepared->Explain().c_str());

  // 5. Execute and measure. The charged IO pages are independent of the
  //    server's thread count — parallelism changes wall time, not the
  //    simulated IO.
  auto result = prepared->Execute();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("result rows: %zu, measured IO: %lld pages\n",
              result->rows.size(),
              static_cast<long long>(prepared->last_io_pages()));
  for (size_t i = 0; i < std::min<size_t>(result->rows.size(), 5); ++i) {
    std::printf("  %s\n", result->rows[i][0].ToString().c_str());
  }

  // 6. EXPLAIN ANALYZE: re-run instrumented; parallel regions show their
  //    worker count per operator.
  auto analyzed = prepared->ExplainAnalyze();
  if (!analyzed.ok()) {
    std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
    return 1;
  }
  std::printf("\nEXPLAIN ANALYZE:\n%s", analyzed->c_str());
  return 0;
}
