#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace aggview {
namespace {

EmpDeptOptions SmallData() {
  EmpDeptOptions o;
  o.num_employees = 200;
  return o;
}

TEST(MatViewDdl, ParsesCreateAndRefresh) {
  EXPECT_TRUE(IsMatViewDdl(
      "create materialized view v as select e.dno from emp e group by e.dno"));
  EXPECT_TRUE(IsMatViewDdl("REFRESH MATERIALIZED VIEW v;"));
  EXPECT_FALSE(IsMatViewDdl("select 1"));
  EXPECT_FALSE(IsMatViewDdl("create view v as select e.dno from emp e"));

  auto create = ParseMatViewDdl(
      "create materialized view sal_by_dept (dno, total) as "
      "select e.dno, sum(e.sal) from emp e group by e.dno;");
  ASSERT_OK(create);
  EXPECT_FALSE(create->refresh);
  EXPECT_EQ(create->name, "sal_by_dept");
  ASSERT_EQ(create->column_names.size(), 2u);
  EXPECT_EQ(create->column_names[0], "dno");
  EXPECT_EQ(create->column_names[1], "total");
  EXPECT_NE(create->select_sql.find("sum(e.sal)"), std::string::npos);

  auto refresh = ParseMatViewDdl("refresh materialized view sal_by_dept");
  ASSERT_OK(refresh);
  EXPECT_TRUE(refresh->refresh);
  EXPECT_EQ(refresh->name, "sal_by_dept");

  EXPECT_FALSE(ParseMatViewDdl("create materialized view v").ok());
  EXPECT_FALSE(ParseMatViewDdl("refresh materialized view").ok());
}

TEST(MatViewCreate, RegistersViewAndBackingTable) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  auto view = ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view dsal (dno, cnt, total, mean, lo, hi) as "
      "select e.dno, count(*), sum(e.sal), avg(e.sal), min(e.sal), "
      "max(e.sal) from emp e group by e.dno");
  ASSERT_OK(view);
  const ViewDefinition* def = f.catalog->FindView("dsal");
  ASSERT_NE(def, nullptr);
  ASSERT_NE(def->def, nullptr);
  EXPECT_EQ(def->def->num_grouping, 1);
  EXPECT_FALSE(def->def->scalar);
  EXPECT_EQ(def->base_tables.size(), 1u);
  EXPECT_TRUE(f.catalog->IsViewFresh(*def));

  // One backing row per department present in emp.
  const Table& emp = (*f.catalog->table(f.tables.emp).data);
  std::set<int64_t> dnos;
  for (int64_t i = 0; i < emp.row_count(); ++i) {
    dnos.insert(emp.row(i)[1].AsInt());
  }
  const Table& backing = (*f.catalog->table(def->backing_table).data);
  EXPECT_EQ(backing.row_count(), static_cast<int64_t>(dnos.size()));

  // AVG shares its partials with SUM and COUNT: grouping key + hidden
  // COUNT(*) row count + psum(sal) + its COUNT(sal) witness + pmin + pmax.
  EXPECT_EQ(f.catalog->table(def->backing_table).schema.num_columns(), 6);
}

TEST(MatViewCreate, RejectsUnsupportedDefinitions) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  auto run = [&](const std::string& sql) {
    return ExecuteMatViewStatement(f.catalog.get(), sql).status();
  };
  EXPECT_FALSE(run("create materialized view v as select e.dno, sum(e.sal) "
                   "from emp e group by e.dno having sum(e.sal) > 10")
                   .ok());
  EXPECT_FALSE(run("create materialized view v as select e.dno, sum(e.sal) "
                   "from emp e group by e.dno order by e.dno")
                   .ok());
  EXPECT_FALSE(run("create materialized view v as select e.dno, "
                   "median(e.sal) from emp e group by e.dno")
                   .ok());
  EXPECT_FALSE(run("create materialized view v as select e.eno, e.sal "
                   "from emp e")
                   .ok());  // not an aggregate query
  EXPECT_FALSE(run("create materialized view v (a, a) as select e.dno, "
                   "sum(e.sal) from emp e group by e.dno")
                   .ok());  // duplicate output name
  EXPECT_FALSE(run("create materialized view v (__k, s) as select e.dno, "
                   "sum(e.sal) from emp e group by e.dno")
                   .ok());  // reserved name prefix
  EXPECT_FALSE(run("create materialized view v (a, b, c) as select e.dno, "
                   "sum(e.sal) from emp e group by e.dno")
                   .ok());  // more names than outputs

  ASSERT_OK(run("create materialized view base as select e.dno, sum(e.sal) "
                "from emp e group by e.dno"));
  EXPECT_FALSE(run("create materialized view v as select b.dno, "
                   "sum(b.base_1) from base b group by b.dno")
                   .ok());  // views over views
  EXPECT_FALSE(run("create materialized view base as select e.dno, "
                   "count(*) from emp e group by e.dno")
                   .ok());  // duplicate view
  EXPECT_FALSE(run("create materialized view emp as select e.dno, count(*) "
                   "from emp e group by e.dno")
                   .ok());  // shadows a table
  EXPECT_FALSE(
      ExecuteMatViewStatement(f.catalog.get(), "refresh materialized view nope")
          .ok());
}

TEST(MatViewRewrite, AnswersExactMatch) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view dsal (dno, cnt, total, mean, lo) as "
      "select e.dno, count(*), sum(e.sal), avg(e.sal), min(e.sal) "
      "from emp e group by e.dno"));
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.dno, count(*), sum(e.sal), avg(e.sal), min(e.sal) "
                "from emp e group by e.dno"),
            1);
  // Any subset of the stored aggregates is answerable too.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.dno, avg(e.sal) from emp e group by e.dno"),
            1);
}

TEST(MatViewRewrite, AnswersRollup) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view by_dept_age as "
      "select e.dno, e.age, count(*), sum(e.sal), avg(e.sal), min(e.sal), "
      "max(e.sal), count(e.sal) from emp e group by e.dno, e.age"));
  // Roll up (dno, age) -> (dno): every combine re-aggregates whole groups.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.dno, count(*), sum(e.sal), avg(e.sal), min(e.sal), "
                "max(e.sal), count(e.sal) from emp e group by e.dno"),
            1);
  // Roll up to the other grouping column.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.age, max(e.sal) from emp e group by e.age"),
            1);
}

TEST(MatViewRewrite, AnswersPredicateViewAndScalarRollup) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view young as "
      "select e.dno, count(*), sum(e.sal) from emp e where e.age < 22 "
      "group by e.dno"));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog,
                                  "select e.dno, count(*), sum(e.sal) "
                                  "from emp e where e.age < 22 group by "
                                  "e.dno"),
            1);
  // Flipped comparison still matches (canonicalized predicates)...
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog,
                                  "select e.dno, sum(e.sal) from emp e "
                                  "where 22 > e.age group by e.dno"),
            1);
  // ... but a different constant does not.
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog,
                                  "select e.dno, sum(e.sal) from emp e "
                                  "where e.age < 23 group by e.dno"),
            0);
  // Scalar roll-up of a grouped view.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select count(*), sum(e.sal) from emp e where e.age < 22"),
            1);
}

TEST(MatViewRewrite, AnswersScalarView) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view totals as "
      "select count(*), sum(e.sal), min(e.age), avg(e.sal) from emp e"));
  const ViewDefinition* def = f.catalog->FindView("totals");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->def->scalar);
  EXPECT_EQ((*f.catalog->table(def->backing_table).data).row_count(), 1);
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select count(*), sum(e.sal), min(e.age), avg(e.sal) "
                "from emp e"),
            1);
}

TEST(MatViewRewrite, AnswersJoinView) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view rich_depts as "
      "select e.dno, avg(e.sal), count(*) from emp e, dept d "
      "where e.dno = d.dno and d.budget < 1000000 group by e.dno"));
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.dno, avg(e.sal) from emp e, dept d "
                "where e.dno = d.dno and d.budget < 1000000 group by e.dno"),
            1);
  // Missing the budget predicate: not contained, not answered.
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog,
                                  "select e.dno, avg(e.sal) from emp e, "
                                  "dept d where e.dno = d.dno group by "
                                  "e.dno"),
            0);
}

TEST(MatViewRewrite, DoesNotAnswerNonContainedQueries) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view dsal as "
      "select e.dno, sum(e.sal) from emp e group by e.dno"));
  // Aggregate not stored in the view.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog, "select e.dno, min(e.sal) from emp e group by "
                            "e.dno"),
            0);
  // Grouping not contained in the view's grouping.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.age, sum(e.sal) from emp e group by e.age"),
            0);
  // Extra predicate the view does not have.
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog,
                                  "select e.dno, sum(e.sal) from emp e "
                                  "where e.age < 30 group by e.dno"),
            0);
  // MEDIAN is never answerable from stored partials.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.dno, median(e.sal) from emp e group by e.dno"),
            0);
}

TEST(MatViewRewrite, ReferencingViewByNameScansBacking) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view dsal (dno, total) as "
      "select e.dno, sum(e.sal) from emp e group by e.dno"));
  // `FROM dsal` binds to the definition (an inlined aggregate view); the
  // rewriter then answers that block from the backing table. Example 1's
  // shape: join the view with the base table.
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select e.sal from emp e, dsal v "
                "where e.dno = v.dno and e.sal > v.total / 2"),
            1);
}

TEST(MatViewRewrite, JoinViewStaysFreshUnderDelta) {
  EmpDeptFixture f = MakeEmpDept(SmallData());
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view rich_depts as "
      "select e.dno, avg(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno"));
  const std::string sql =
      "select e.dno, avg(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno";
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);

  // A delta on one base table of a join view is merged in by a delta query:
  // the view stays fresh and the rewriter keeps answering from it.
  TableDelta delta;
  delta.table = f.tables.emp;
  delta.deletes = {0, 1, 2};
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.views_marked_stale, 0);
  EXPECT_TRUE(f.catalog->IsViewFresh(*f.catalog->FindView("rich_depts")));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);
  ExpectMatchesRefresh(f.catalog.get(), "rich_depts");
}

TEST(MatViewSession, DdlRewriteAndAudit) {
  Server server;
  auto tables = CreateEmpDeptSchema(&server.catalog());
  ASSERT_OK(tables);
  ASSERT_OK(GenerateEmpDeptData(&server.catalog(), *tables, SmallData()));
  ServerSession conn = server.Connect();

  auto created = conn.ExecuteDdl(
      "create materialized view dsal (dno, total, cnt) as "
      "select e.dno, sum(e.sal), count(*) from emp e group by e.dno");
  ASSERT_OK(created);
  EXPECT_NE(created->find("dsal"), std::string::npos);

  const std::string sql =
      "select e.dno, sum(e.sal) from emp e group by e.dno";
  auto answered = conn.Sql(sql);
  ASSERT_OK(answered);
  EXPECT_NE(answered->description().find("materialized views"),
            std::string::npos);
  auto res_answered = answered->Execute();
  ASSERT_OK(res_answered);

  // A second server with the rewriter disabled: base plan, same bytes.
  Server base{[] {
    ServerOptions o = ServerOptions::Default();
    o.use_materialized_views = false;
    return o;
  }()};
  auto base_tables = CreateEmpDeptSchema(&base.catalog());
  ASSERT_OK(base_tables);
  ASSERT_OK(GenerateEmpDeptData(&base.catalog(), *base_tables, SmallData()));
  auto plain = base.Connect().Sql(sql);
  ASSERT_OK(plain);
  EXPECT_EQ(plain->description().find("materialized views"),
            std::string::npos);
  auto res_plain = plain->Execute();
  ASSERT_OK(res_plain);
  EXPECT_EQ(res_answered->Fingerprint(), res_plain->Fingerprint());
}

}  // namespace
}  // namespace aggview
