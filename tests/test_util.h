#ifndef AGGVIEW_TESTS_TEST_UTIL_H_
#define AGGVIEW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "aggview.h"

namespace aggview {

#define ASSERT_OK(expr)                                              \
  do {                                                               \
    const auto& _status_like = (expr);                               \
    ASSERT_TRUE(_status_like.ok()) << StatusString(_status_like);    \
  } while (false)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    const auto& _status_like = (expr);                               \
    EXPECT_TRUE(_status_like.ok()) << StatusString(_status_like);    \
  } while (false)

inline std::string StatusString(const Status& s) { return s.ToString(); }
template <typename T>
std::string StatusString(const Result<T>& r) {
  return r.status().ToString();
}

/// emp/dept catalog with generated data (the paper's running example).
struct EmpDeptFixture {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  EmpDeptTables tables;
};

inline EmpDeptFixture MakeEmpDept(const EmpDeptOptions& options = {}) {
  EmpDeptFixture f;
  auto tables = CreateEmpDeptSchema(f.catalog.get());
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  f.tables = *tables;
  Status st = GenerateEmpDeptData(f.catalog.get(), f.tables, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return f;
}

/// Example 1 of the paper: employees under 22 earning more than their
/// department's average salary, phrased with the aggregate view A1.
inline std::string Example1Sql() {
  return R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, a1 b
where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal
)sql";
}

/// Example 2 of the paper: average salary per department with budget < 1M,
/// as a single-block query (the invariant-grouping example).
inline std::string Example2Sql() {
  return R"sql(
select e.dno, avg(e.sal)
from emp e, dept d
where e.dno = d.dno and d.budget < 1000000
group by e.dno
)sql";
}

/// TPC-D catalog with generated data.
struct TpcdFixture {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  TpcdTables tables;
};

inline TpcdFixture MakeTpcd(const DbgenOptions& options) {
  TpcdFixture f;
  auto tables = CreateTpcdSchema(f.catalog.get());
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  f.tables = *tables;
  Status st = GenerateTpcdData(f.catalog.get(), f.tables, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return f;
}

/// Optimizes `sql` with both the traditional and the aggregate-view
/// optimizer, executes both plans, and checks result equivalence; returns
/// the two measured IO counts through the out-params.
inline void CheckOptimizersAgree(const Catalog& catalog,
                                 const std::string& sql,
                                 int64_t* traditional_io = nullptr,
                                 int64_t* extended_io = nullptr) {
  auto query = ParseAndBind(catalog, sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  auto traditional = OptimizeTraditional(*query);
  ASSERT_TRUE(traditional.ok()) << traditional.status().ToString();
  auto extended = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();

  {
    Status v1 = ValidatePlan(traditional->plan, traditional->query);
    ASSERT_TRUE(v1.ok()) << v1.ToString();
    Status v2 = ValidatePlan(extended->plan, extended->query);
    ASSERT_TRUE(v2.ok()) << v2.ToString();
  }

  EXPECT_LE(extended->plan->cost, traditional->plan->cost)
      << "no-worse guarantee violated";

  IoAccountant io_t, io_e;
  auto result_t = ExecutePlan(traditional->plan, traditional->query,
                              ExecContext::Default().WithIo(&io_t));
  ASSERT_TRUE(result_t.ok()) << result_t.status().ToString();
  auto result_e = ExecutePlan(extended->plan, extended->query,
                              ExecContext::Default().WithIo(&io_e));
  ASSERT_TRUE(result_e.ok()) << result_e.status().ToString();

  EXPECT_EQ(result_t->Fingerprint(), result_e->Fingerprint())
      << "plans disagree on query results";
  if (traditional_io != nullptr) *traditional_io = io_t.total();
  if (extended_io != nullptr) *extended_io = io_e.total();
}

/// Executes `sql` twice — answered from materialized views (rewriter +
/// traditional optimizer) and straight from base tables — and expects
/// byte-identical results plus a verifying rewrite audit. Returns the
/// number of blocks the rewriter answered.
inline int CheckViewAnswersAgree(const Catalog& catalog,
                                 const std::string& sql) {
  auto base = ParseAndBind(catalog, sql);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  auto opt_base = OptimizeTraditional(*base);
  EXPECT_TRUE(opt_base.ok()) << opt_base.status().ToString();
  auto res_base = ExecutePlan(opt_base->plan, opt_base->query);
  EXPECT_TRUE(res_base.ok()) << res_base.status().ToString();

  auto rewritten = ParseAndBind(catalog, sql);
  EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  std::vector<ViewRewriteCertificate> certs;
  auto n = RewriteWithMaterializedViews(catalog, &*rewritten, &certs);
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  auto opt_view = OptimizeTraditional(*rewritten);
  EXPECT_TRUE(opt_view.ok()) << opt_view.status().ToString();
  auto res_view = ExecutePlan(opt_view->plan, opt_view->query);
  EXPECT_TRUE(res_view.ok()) << res_view.status().ToString();

  EXPECT_EQ(res_base->Fingerprint(), res_view->Fingerprint())
      << "view-answered plan disagrees with the base plan for:\n"
      << sql;
  TransformationAudit audit;
  audit.view_rewrites = std::move(certs);
  Status verified = VerifyAudit(opt_view->query, audit);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  return *n;
}

/// Expects the backing content of `view` to be byte-identical to what a
/// REFRESH computes from the current base tables; leaves the view refreshed.
inline void ExpectMatchesRefresh(Catalog* catalog, const std::string& view) {
  const std::string maintained = BackingFingerprint(*catalog, view);
  ASSERT_OK(RefreshMaterializedView(catalog, view));
  EXPECT_EQ(maintained, BackingFingerprint(*catalog, view))
      << "maintained content of '" << view << "' differs from a REFRESH";
}

}  // namespace aggview

#endif  // AGGVIEW_TESTS_TEST_UTIL_H_
