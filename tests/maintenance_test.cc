#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace aggview {
namespace {

/// emp/dept with a deterministic, small workload plus views covering every
/// decomposable aggregate kind. Rows are appended/deleted via
/// ApplyTableDelta, and correctness is judged by the strongest check
/// available: the maintained backing table must answer queries
/// byte-identically to plans recomputing from the mutated base data.
struct MaintenanceFixture {
  EmpDeptFixture f;
  TableId emp = -1;

  static MaintenanceFixture Make() {
    EmpDeptOptions o;
    o.num_employees = 120;
    MaintenanceFixture m{MakeEmpDept(o)};
    m.emp = m.f.tables.emp;
    EXPECT_OK(ExecuteMatViewStatement(
        m.f.catalog.get(),
        "create materialized view per_dept as "
        "select e.dno, count(*), count(e.sal), sum(e.sal), avg(e.sal), "
        "min(e.sal), max(e.sal) from emp e group by e.dno"));
    return m;
  }

  Row EmpRow(int64_t eno, int64_t dno, Value sal, int64_t age) {
    return {Value::Int(eno), Value::Int(dno), std::move(sal), Value::Int(age)};
  }

  /// The full battery: every stored aggregate recomputed from base vs the
  /// maintained backing content.
  void ExpectMaintained() {
    EXPECT_TRUE(
        f.catalog->IsViewFresh(*f.catalog->FindView("per_dept")));
    EXPECT_EQ(CheckViewAnswersAgree(
                  *f.catalog,
                  "select e.dno, count(*), count(e.sal), sum(e.sal), "
                  "avg(e.sal), min(e.sal), max(e.sal) from emp e "
                  "group by e.dno"),
              1);
  }
};

TEST(Maintenance, InsertsMergeIntoExistingGroups) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  TableDelta delta;
  delta.table = m.emp;
  delta.inserts = {m.EmpRow(9001, 0, Value::Real(1234.5), 30),
                   m.EmpRow(9002, 0, Value::Real(8.25), 61),
                   m.EmpRow(9003, 1, Value::Real(99999.0), 19)};
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.views_marked_stale, 0);
  EXPECT_GE(report.groups_touched, 2);
  m.ExpectMaintained();
}

TEST(Maintenance, InsertCreatesNewGroup) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  const ViewDefinition* view = m.f.catalog->FindView("per_dept");
  int64_t before = (*m.f.catalog->table(view->backing_table).data).row_count();
  TableDelta delta;
  delta.table = m.emp;
  delta.inserts = {m.EmpRow(9001, 999, Value::Real(42.0), 40),
                   m.EmpRow(9002, 999, Value::Real(58.0), 41)};
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, &report));
  EXPECT_EQ(report.groups_added, 1);
  EXPECT_EQ((*m.f.catalog->table(view->backing_table).data).row_count(), before + 1);
  m.ExpectMaintained();
}

TEST(Maintenance, DeleteRetractsCountsAndSums) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  TableDelta delta;
  delta.table = m.emp;
  delta.deletes = {0, 5, 17, 44};
  // Any deleted non-NULL salary (not only an extremum) forces a
  // re-derivation of its group's MIN/MAX partials from the base, unless the
  // delta empties the group.
  const Table& emp = (*m.f.catalog->table(m.emp).data);
  std::map<int64_t, int64_t> rows_left;
  for (int64_t i = 0; i < emp.row_count(); ++i) {
    rows_left[emp.row(i)[1].AsInt()]++;
  }
  std::set<int64_t> hit;
  for (int64_t i : delta.deletes) {
    rows_left[emp.row(i)[1].AsInt()]--;
    if (!emp.row(i)[2].is_null()) hit.insert(emp.row(i)[1].AsInt());
  }
  int64_t want_recomputed = 0;
  for (int64_t dno : hit) want_recomputed += rows_left[dno] > 0 ? 1 : 0;
  ASSERT_GT(want_recomputed, 0);

  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.groups_recomputed, want_recomputed);
  m.ExpectMaintained();
}

TEST(Maintenance, DuplicateDeleteIndexRetractsOnce) {
  // DeleteRows ignores a repeated index, so the view must retract the row
  // once too.
  MaintenanceFixture m = MaintenanceFixture::Make();
  const int64_t before = (*m.f.catalog->table(m.emp).data).row_count();
  TableDelta delta;
  delta.table = m.emp;
  delta.deletes = {5, 5, 17};
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, &report));
  EXPECT_EQ((*m.f.catalog->table(m.emp).data).row_count(), before - 2);
  EXPECT_EQ(report.groups_removed, 0);
  m.ExpectMaintained();
}

TEST(Maintenance, DeleteEmptyingGroupRemovesBackingRow) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  // Build a fresh group, then delete exactly its rows.
  TableDelta grow;
  grow.table = m.emp;
  grow.inserts = {m.EmpRow(9001, 999, Value::Real(1.0), 40),
                  m.EmpRow(9002, 999, Value::Real(2.0), 41)};
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), grow, nullptr));
  const Table& emp = (*m.f.catalog->table(m.emp).data);
  TableDelta shrink;
  shrink.table = m.emp;
  for (int64_t i = 0; i < emp.row_count(); ++i) {
    if (emp.row(i)[1].AsInt() == 999) shrink.deletes.push_back(i);
  }
  ASSERT_EQ(shrink.deletes.size(), 2u);
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), shrink, &report));
  EXPECT_EQ(report.groups_removed, 1);
  // The emptied group is dropped, not re-derived.
  EXPECT_EQ(report.groups_recomputed, 0);
  const ViewDefinition* view = m.f.catalog->FindView("per_dept");
  const Table& backing = (*m.f.catalog->table(view->backing_table).data);
  for (int64_t i = 0; i < backing.row_count(); ++i) {
    EXPECT_NE(backing.row(i)[0].AsInt(), 999)
        << "emptied group still present in the backing table";
  }
  m.ExpectMaintained();
}

TEST(Maintenance, ScalarViewKeepsEmptyAggregateRow) {
  EmpDeptOptions o;
  o.num_employees = 25;
  EmpDeptFixture f = MakeEmpDept(o);
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view totals as "
      "select count(*), count(e.sal), sum(e.sal), min(e.sal), avg(e.sal) "
      "from emp e"));
  // Delete every employee: the scalar view must keep its single row and
  // flip to the empty-aggregate values (zero counts, NULL extremes/sums),
  // exactly what a scalar aggregate over the empty base produces.
  TableDelta delta;
  delta.table = f.tables.emp;
  for (int64_t i = 0; i < (*f.catalog->table(f.tables.emp).data).row_count(); ++i) {
    delta.deletes.push_back(i);
  }
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.groups_removed, 0);
  // The scalar row stays, so its MIN is re-derived (over no rows).
  EXPECT_EQ(report.groups_recomputed, 1);

  const ViewDefinition* view = f.catalog->FindView("totals");
  const Table& backing = (*f.catalog->table(view->backing_table).data);
  ASSERT_EQ(backing.row_count(), 1);
  EXPECT_EQ(backing.row(0)[view->def->rows_col].AsInt(), 0);
  EXPECT_EQ(CheckViewAnswersAgree(
                *f.catalog,
                "select count(*), count(e.sal), sum(e.sal), min(e.sal), "
                "avg(e.sal) from emp e"),
            1);
}

TEST(Maintenance, CountArgDivergesFromCountStarUnderNulls) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  // A brand-new group whose only salaries are NULL: COUNT(*) counts the
  // rows, COUNT(sal) counts none, SUM/AVG/MIN/MAX are NULL.
  TableDelta delta;
  delta.table = m.emp;
  delta.inserts = {m.EmpRow(9001, 777, Value::Null(), 30),
                   m.EmpRow(9002, 777, Value::Null(), 31),
                   m.EmpRow(9003, 777, Value::Real(64.0), 32)};
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, nullptr));
  m.ExpectMaintained();

  // Retract the one non-NULL salary: the COUNT witness must restore the
  // group's SUM/AVG partials to NULL rather than leave a stale 64.
  const Table& emp = (*m.f.catalog->table(m.emp).data);
  TableDelta retract;
  retract.table = m.emp;
  for (int64_t i = 0; i < emp.row_count(); ++i) {
    if (emp.row(i)[0].AsInt() == 9003) retract.deletes.push_back(i);
  }
  ASSERT_EQ(retract.deletes.size(), 1u);
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), retract, nullptr));
  m.ExpectMaintained();
}

TEST(Maintenance, MultiRelationViewGoesStaleAndRefreshes) {
  EmpDeptOptions o;
  o.num_employees = 120;
  EmpDeptFixture f = MakeEmpDept(o);
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(),
      "create materialized view joined as "
      "select e.dno, count(*), sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno"));
  const std::string sql =
      "select e.dno, count(*), sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno";
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);

  // An FK-cascading delete: remove dept 1 and every employee in it, as two
  // deltas. The join view cannot be maintained incrementally — it goes
  // stale after the first delta and stays stale after the second.
  const Table& dept = (*f.catalog->table(f.tables.dept).data);
  TableDelta drop_dept;
  drop_dept.table = f.tables.dept;
  for (int64_t i = 0; i < dept.row_count(); ++i) {
    if (dept.row(i)[0].AsInt() == 1) drop_dept.deletes.push_back(i);
  }
  ASSERT_EQ(drop_dept.deletes.size(), 1u);
  MaintenanceReport r1;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), drop_dept, &r1));
  EXPECT_EQ(r1.views_marked_stale, 1);

  const Table& emp = (*f.catalog->table(f.tables.emp).data);
  TableDelta drop_emps;
  drop_emps.table = f.tables.emp;
  for (int64_t i = 0; i < emp.row_count(); ++i) {
    if (emp.row(i)[1].AsInt() == 1) drop_emps.deletes.push_back(i);
  }
  MaintenanceReport r2;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), drop_emps, &r2));
  EXPECT_EQ(r2.views_marked_stale, 1);
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 0);  // stale: skipped

  // REFRESH re-derives the content from the cascaded base state.
  ASSERT_OK(RefreshMaterializedView(f.catalog.get(), "joined"));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);
}

TEST(Maintenance, RejectsMalformedDeltas) {
  MaintenanceFixture m = MaintenanceFixture::Make();
  TableDelta bad_table;
  bad_table.table = 9999;
  EXPECT_FALSE(ApplyTableDelta(m.f.catalog.get(), bad_table, nullptr).ok());

  TableDelta bad_delete;
  bad_delete.table = m.emp;
  bad_delete.deletes = {1'000'000};
  EXPECT_FALSE(ApplyTableDelta(m.f.catalog.get(), bad_delete, nullptr).ok());

  TableDelta bad_arity;
  bad_arity.table = m.emp;
  bad_arity.inserts = {{Value::Int(1), Value::Int(2)}};
  EXPECT_FALSE(ApplyTableDelta(m.f.catalog.get(), bad_arity, nullptr).ok());

  TableDelta bad_type;
  bad_type.table = m.emp;
  bad_type.inserts = {
      {Value::Int(1), Value::Str("zero"), Value::Real(1.0), Value::Int(30)}};
  EXPECT_FALSE(ApplyTableDelta(m.f.catalog.get(), bad_type, nullptr).ok());
}

TEST(Maintenance, MixedDeltaAfterRefreshCycle) {
  // The acceptance scenario: create, mutate (insert + delete in one delta),
  // verify, refresh anyway, verify again — the refresh must be a no-op
  // content-wise.
  MaintenanceFixture m = MaintenanceFixture::Make();
  TableDelta delta;
  delta.table = m.emp;
  delta.inserts = {m.EmpRow(9001, 2, Value::Real(500.5), 28),
                   m.EmpRow(9002, 999, Value::Null(), 50)};
  delta.deletes = {3, 7};
  ASSERT_OK(ApplyTableDelta(m.f.catalog.get(), delta, nullptr));
  m.ExpectMaintained();

  const ViewDefinition* view = m.f.catalog->FindView("per_dept");
  int64_t epoch_before = view->epoch.load();
  ASSERT_OK(RefreshMaterializedView(m.f.catalog.get(), "per_dept"));
  EXPECT_GT(view->epoch.load(), epoch_before);
  m.ExpectMaintained();
}

}  // namespace
}  // namespace aggview
