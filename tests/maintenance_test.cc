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

/// emp ⋈ dept over 120 employees in 6 departments, for the join views.
EmpDeptFixture MakeJoinData() {
  EmpDeptOptions o;
  o.num_employees = 120;
  o.num_departments = 6;
  return MakeEmpDept(o);
}

/// Indices of the rows of `table` whose column `col` holds `value`.
std::vector<int64_t> RowsWhere(const Catalog& catalog, TableId table, int col,
                               int64_t value) {
  const Table& t = *catalog.table(table).data;
  std::vector<int64_t> out;
  for (int64_t i = 0; i < t.row_count(); ++i) {
    if (t.row(i)[static_cast<size_t>(col)].AsInt() == value) out.push_back(i);
  }
  return out;
}

/// A maintained join view: still fresh, the rewriter answers `sql` from it
/// byte-identically to the base plan, and its backing content is exactly
/// what a REFRESH computes.
void ExpectJoinViewMaintained(Catalog* catalog, const std::string& view,
                              const std::string& sql) {
  EXPECT_TRUE(catalog->IsViewFresh(*catalog->FindView(view)));
  EXPECT_EQ(CheckViewAnswersAgree(*catalog, sql), 1);
  ExpectMatchesRefresh(catalog, view);
}

TEST(Maintenance, JoinViewMaintainedThroughCascadingDelete) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select e.dno, count(*), sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view joined as " + sql));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);

  // An FK-cascading delete as two deltas. Removing dept 1 is a dept-side
  // delta (ΔS ⋈ emp): it retracts every employee of dept 1 and empties the
  // group.
  TableDelta drop_dept;
  drop_dept.table = f.tables.dept;
  drop_dept.deletes = RowsWhere(*f.catalog, f.tables.dept, 0, 1);
  ASSERT_EQ(drop_dept.deletes.size(), 1u);
  MaintenanceReport r1;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), drop_dept, &r1));
  EXPECT_EQ(r1.views_maintained, 1);
  EXPECT_EQ(r1.views_marked_stale, 0);
  EXPECT_EQ(r1.groups_touched, 1);
  EXPECT_EQ(r1.groups_removed, 1);
  ExpectJoinViewMaintained(f.catalog.get(), "joined", sql);

  // Dept 1's employees now join nothing, so deleting them touches no group.
  TableDelta drop_emps;
  drop_emps.table = f.tables.emp;
  drop_emps.deletes = RowsWhere(*f.catalog, f.tables.emp, 1, 1);
  ASSERT_FALSE(drop_emps.deletes.empty());
  MaintenanceReport r2;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), drop_emps, &r2));
  EXPECT_EQ(r2.views_maintained, 1);
  EXPECT_EQ(r2.groups_touched, 0);
  ExpectJoinViewMaintained(f.catalog.get(), "joined", sql);
}

TEST(Maintenance, JoinViewNullSalKeepsCountWitness) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select e.dno, count(*), count(e.sal), sum(e.sal), avg(e.sal) "
      "from emp e, dept d where e.dno = d.dno group by e.dno";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view pay as " + sql));

  // An emp-side delete that empties dept 2's group.
  TableDelta empty;
  empty.table = f.tables.emp;
  empty.deletes = RowsWhere(*f.catalog, f.tables.emp, 1, 2);
  ASSERT_FALSE(empty.deletes.empty());
  MaintenanceReport r1;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), empty, &r1));
  EXPECT_EQ(r1.groups_removed, 1);
  ExpectJoinViewMaintained(f.catalog.get(), "pay", sql);

  // The group comes back with two NULL salaries and one non-NULL one.
  TableDelta grow;
  grow.table = f.tables.emp;
  grow.inserts = {
      {Value::Int(9001), Value::Int(2), Value::Null(), Value::Int(30)},
      {Value::Int(9002), Value::Int(2), Value::Null(), Value::Int(31)},
      {Value::Int(9003), Value::Int(2), Value::Real(64.0), Value::Int(32)}};
  MaintenanceReport r2;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), grow, &r2));
  EXPECT_EQ(r2.groups_added, 1);
  ExpectJoinViewMaintained(f.catalog.get(), "pay", sql);

  // Retracting the one non-NULL salary: the COUNT witness restores the SUM
  // partial to NULL rather than leaving 0.
  TableDelta retract;
  retract.table = f.tables.emp;
  retract.deletes = RowsWhere(*f.catalog, f.tables.emp, 0, 9003);
  ASSERT_EQ(retract.deletes.size(), 1u);
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), retract, nullptr));
  const ViewDefinition* view = f.catalog->FindView("pay");
  const Table& backing = *f.catalog->table(view->backing_table).data;
  int found = 0;
  for (int64_t i = 0; i < backing.row_count(); ++i) {
    const Row g = backing.row(i);
    if (g[0].AsInt() != 2) continue;
    ++found;
    const ViewAggSlot& sum = view->def->slots[2];
    EXPECT_TRUE(g[static_cast<size_t>(sum.storage[0])].is_null());
    EXPECT_EQ(g[static_cast<size_t>(view->def->rows_col)].AsInt(), 2);
  }
  EXPECT_EQ(found, 1);
  ExpectJoinViewMaintained(f.catalog.get(), "pay", sql);
}

TEST(Maintenance, JoinViewMinMaxRetractionRescans) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select d.budget, min(e.sal), max(e.age), count(*) from emp e, dept d "
      "where e.dno = d.dno group by d.budget";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view extremes as " + sql));
  // Every deleted row has a non-NULL salary and age, so each budget group
  // it leaves has its extrema re-derived.
  TableDelta delta;
  delta.table = f.tables.emp;
  delta.deletes = {0, 5, 17};
  delta.inserts = {{Value::Int(9001), Value::Int(3), Value::Real(1.0),
                    Value::Int(99)}};
  std::set<int64_t> depts;
  const Table& emp = *f.catalog->table(f.tables.emp).data;
  for (int64_t i : delta.deletes) depts.insert(emp.row(i)[1].AsInt());
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.groups_recomputed, static_cast<int64_t>(depts.size()));
  ExpectJoinViewMaintained(f.catalog.get(), "extremes", sql);
}

TEST(Maintenance, JoinViewBudgetFilterDropsDeltaRows) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select e.dno, count(*), sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno and d.budget < 1000000 group by e.dno";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view poor as " + sql));
  int64_t poor = -1;
  int64_t rich = -1;
  const Table& dept = *f.catalog->table(f.tables.dept).data;
  for (int64_t i = 0; i < dept.row_count(); ++i) {
    const Row d = dept.row(i);
    (d[1].AsDouble() < 1'000'000 ? poor : rich) = d[0].AsInt();
  }
  ASSERT_GE(poor, 0);
  ASSERT_GE(rich, 0);

  // A row of a department the filter drops reaches no group.
  TableDelta dropped;
  dropped.table = f.tables.emp;
  dropped.inserts = {{Value::Int(9001), Value::Int(rich), Value::Real(5.0),
                      Value::Int(40)}};
  MaintenanceReport r1;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), dropped, &r1));
  EXPECT_EQ(r1.views_maintained, 1);
  EXPECT_EQ(r1.groups_touched, 0);
  ExpectJoinViewMaintained(f.catalog.get(), "poor", sql);

  TableDelta kept;
  kept.table = f.tables.emp;
  kept.inserts = {{Value::Int(9002), Value::Int(poor), Value::Real(5.0),
                   Value::Int(40)}};
  MaintenanceReport r2;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), kept, &r2));
  EXPECT_EQ(r2.groups_touched, 1);
  ExpectJoinViewMaintained(f.catalog.get(), "poor", sql);
}

TEST(Maintenance, ScalarJoinViewKeepsItsRow) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select count(*) from emp e, dept d where e.dno = d.dno";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view pairs as " + sql));
  TableDelta add;
  add.table = f.tables.emp;
  add.inserts = {{Value::Int(9001), Value::Int(4), Value::Real(5.0),
                  Value::Int(40)}};
  add.deletes = {3};
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), add, nullptr));
  ExpectJoinViewMaintained(f.catalog.get(), "pairs", sql);

  // Deleting every department leaves no pair: the scalar row stays, with a
  // zero count.
  TableDelta clear;
  clear.table = f.tables.dept;
  for (int64_t i = 0; i < f.catalog->table(f.tables.dept).data->row_count();
       ++i) {
    clear.deletes.push_back(i);
  }
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), clear, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.groups_removed, 0);
  const ViewDefinition* view = f.catalog->FindView("pairs");
  const Table& backing = *f.catalog->table(view->backing_table).data;
  ASSERT_EQ(backing.row_count(), 1);
  EXPECT_EQ(backing.row(0)[static_cast<size_t>(view->def->rows_col)].AsInt(),
            0);
  ExpectJoinViewMaintained(f.catalog.get(), "pairs", sql);
}

TEST(Maintenance, DeptBudgetChangeMovesEmployeesBetweenGroups) {
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select d.budget, sum(e.sal), max(e.sal), count(*) from emp e, dept d "
      "where e.dno = d.dno group by d.budget";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view by_budget as " + sql));

  // A dept-side delta (ΔS ⋈ emp): dept 3 is deleted and comes back with a
  // budget no other department has, so its employees are retracted from
  // the old budget group and added to a new one.
  TableDelta rebudget;
  rebudget.table = f.tables.dept;
  rebudget.deletes = RowsWhere(*f.catalog, f.tables.dept, 0, 3);
  ASSERT_EQ(rebudget.deletes.size(), 1u);
  rebudget.inserts = {{Value::Int(3), Value::Real(123.0)}};
  ASSERT_FALSE(RowsWhere(*f.catalog, f.tables.emp, 1, 3).empty());
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), rebudget, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.groups_added, 1);
  EXPECT_EQ(report.groups_touched, 2);
  ExpectJoinViewMaintained(f.catalog.get(), "by_budget", sql);
}

TEST(Maintenance, SelfJoinViewGoesStaleAndRefreshes) {
  // A view reading the delta table twice is not maintained: a delta on emp
  // changes both sides of the self-join, so ΔV is not one delta query.
  EmpDeptFixture f = MakeJoinData();
  const std::string sql =
      "select e1.dno, count(*) from emp e1, emp e2 "
      "where e1.dno = e2.dno group by e1.dno";
  ASSERT_OK(ExecuteMatViewStatement(
      f.catalog.get(), "create materialized view peers as " + sql));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 1);

  TableDelta delta;
  delta.table = f.tables.emp;
  delta.deletes = {0, 1, 2};
  MaintenanceReport report;
  ASSERT_OK(ApplyTableDelta(f.catalog.get(), delta, &report));
  EXPECT_EQ(report.views_maintained, 0);
  EXPECT_EQ(report.views_marked_stale, 1);
  EXPECT_FALSE(f.catalog->IsViewFresh(*f.catalog->FindView("peers")));
  EXPECT_EQ(CheckViewAnswersAgree(*f.catalog, sql), 0);  // stale: skipped

  ASSERT_OK(RefreshMaterializedView(f.catalog.get(), "peers"));
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
