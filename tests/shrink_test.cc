#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace aggview {
namespace {

/// Skeleton extraction, bounded enumeration, and counterexample shrinking in
/// isolation (verify/skeleton.h, verify/enumerate.h, verify/shrink.h): the
/// building blocks the prover composes, checked against hand-computed state
/// spaces and synthetic refutation oracles.

class SkeletonTest : public ::testing::Test {
 protected:
  SkeletonTest() : fixture_(MakeEmpDept()) {}

  Result<SchemaSkeleton> SkeletonOf(const std::string& sql) {
    auto bound = ParseAndBind(*fixture_.catalog, sql);
    if (!bound.ok()) return bound.status();
    query_ = std::make_unique<Query>(std::move(*bound));
    return ExtractSkeleton(*fixture_.catalog, {SkeletonSource{query_.get(), {}}});
  }

  EmpDeptFixture fixture_;
  std::unique_ptr<Query> query_;
};

TEST_F(SkeletonTest, ExtractsKeysForeignKeysAndDomains) {
  auto skeleton = SkeletonOf(
      "select e.sal from emp e, dept d where e.dno = d.dno and e.sal > 0");
  ASSERT_OK(skeleton);
  ASSERT_EQ(skeleton->tables.size(), 2u);

  // FK topological order: the referenced table (dept) precedes emp.
  const TableSkeleton& dept = skeleton->tables[0];
  const TableSkeleton& emp = skeleton->tables[1];
  EXPECT_EQ(dept.name, "dept");
  EXPECT_EQ(emp.name, "emp");
  EXPECT_EQ(dept.key_column, 0);
  EXPECT_EQ(emp.key_column, 0);

  // emp.dno is a resolved foreign key into dept's label space.
  const SkeletonColumn& dno = emp.columns[1];
  EXPECT_TRUE(dno.relevant);
  EXPECT_EQ(dno.fk_table, dept.table);

  // emp.sal: relevant plain column, base domain {0, 1} plus the literal 0
  // with its inequality neighbours -1 and 1 — union {-1, 0, 1}.
  const SkeletonColumn& sal = emp.columns[2];
  EXPECT_TRUE(sal.relevant);
  EXPECT_FALSE(sal.is_key);
  EXPECT_EQ(sal.fk_table, -1);
  EXPECT_TRUE(sal.nullable);
  ASSERT_EQ(sal.domain.size(), 3u);
  EXPECT_EQ(sal.domain[0].AsNumeric(), -1.0);
  EXPECT_EQ(sal.domain[1].AsNumeric(), 0.0);
  EXPECT_EQ(sal.domain[2].AsNumeric(), 1.0);

  // emp.age is never mentioned: pinned, not enumerated.
  EXPECT_FALSE(emp.columns[3].relevant);

  EXPECT_EQ(skeleton->IndexOf(emp.table), 1);
  EXPECT_EQ(skeleton->IndexOf(dept.table), 0);
  EXPECT_EQ(skeleton->IndexOf(static_cast<TableId>(999)), -1);
}

TEST_F(SkeletonTest, RejectsKeyComparedToLiteral) {
  // eno > 0 observes the key's magnitude, so canonical row labeling would
  // not be equivalence-preserving: out of the prover's scope.
  auto skeleton = SkeletonOf("select e.sal from emp e where e.eno > 0");
  EXPECT_FALSE(skeleton.ok());
}

TEST_F(SkeletonTest, RejectsCrossLabelSpaceEquality) {
  // emp.eno and dept.dno label different tables; equating them lets a
  // relabeling change which rows join.
  auto skeleton = SkeletonOf(
      "select e.sal from emp e, dept d where e.eno = d.dno");
  EXPECT_FALSE(skeleton.ok());
}

TEST_F(SkeletonTest, RejectsLabelToPlainEquality) {
  auto skeleton = SkeletonOf(
      "select e.sal from emp e where e.eno = e.age");
  EXPECT_FALSE(skeleton.ok());
}

/// Enumeration/shrinking fixture: skeleton over emp alone (one relevant
/// column) or emp+dept (foreign key), plus helpers to hand-build databases.
class ShrinkTest : public SkeletonTest {
 protected:
  /// Builds a row for skeleton table `t`: key columns get the label, columns
  /// listed in `overrides` (schema index -> value) get that value, the rest
  /// their pinned value.
  static Row MakeRow(const TableSkeleton& t, int64_t label,
                     const std::map<int, Value>& overrides) {
    Row row;
    for (const SkeletonColumn& col : t.columns) {
      auto it = overrides.find(col.index);
      if (col.index == t.key_column) {
        row.push_back(Value::Int(label));
      } else if (it != overrides.end()) {
        row.push_back(it->second);
      } else {
        row.push_back(col.pinned);
      }
    }
    return row;
  }

  static std::string Stringify(const BoundedDatabase& db) {
    std::string out;
    for (const std::shared_ptr<Table>& t : db.tables) {
      out += "[";
      for (int64_t r = 0; r < t->row_count(); ++r) {
        out += "(";
        const Row row = t->row(r);
        for (const Value& v : row) out += v.ToString() + ",";
        out += ")";
      }
      out += "]";
    }
    return out;
  }
};

TEST_F(ShrinkTest, EnumerationCountsMatchMultisetArithmetic) {
  // emp alone; only sal is relevant, domain {-1, 0, 1} + NULL = 4 values.
  // Databases up to isomorphism = multisets of row tuples:
  //   r=0: 1, r=1: 4, r=2: C(5,2)=10, r=3: C(6,3)=20.
  auto skeleton = SkeletonOf("select e.sal from emp e where e.sal > 0");
  ASSERT_OK(skeleton);

  EnumerationBounds bounds;
  bounds.max_rows = 2;
  int64_t seen = 0;
  auto visited = ForEachBoundedDatabase(
      *skeleton, bounds, [&](const BoundedDatabase&) -> Result<bool> {
        ++seen;
        return true;
      });
  ASSERT_OK(visited);
  EXPECT_EQ(*visited, 15);
  EXPECT_EQ(seen, 15);

  bounds.max_rows = 3;
  visited = ForEachBoundedDatabase(
      *skeleton, bounds, [&](const BoundedDatabase&) -> Result<bool> { return true; });
  ASSERT_OK(visited);
  EXPECT_EQ(*visited, 35);
}

TEST_F(ShrinkTest, EnumerationStopsEarlyAndHonorsCap) {
  auto skeleton = SkeletonOf("select e.sal from emp e where e.sal > 0");
  ASSERT_OK(skeleton);

  EnumerationBounds bounds;
  bounds.max_rows = 3;
  int64_t seen = 0;
  auto visited = ForEachBoundedDatabase(
      *skeleton, bounds, [&](const BoundedDatabase&) -> Result<bool> {
        return ++seen < 3;  // stop after the third database
      });
  ASSERT_OK(visited);
  EXPECT_EQ(*visited, 3);

  bounds.max_databases = 5;
  auto capped = ForEachBoundedDatabase(
      *skeleton, bounds, [&](const BoundedDatabase&) -> Result<bool> { return true; });
  EXPECT_FALSE(capped.ok());
}

TEST_F(ShrinkTest, RemoveRowCascadesForeignKeysAndRenumbersLabels) {
  auto skeleton = SkeletonOf(
      "select e.sal from emp e, dept d where e.dno = d.dno and e.sal > 0");
  ASSERT_OK(skeleton);
  const TableSkeleton& dept = skeleton->tables[0];
  const TableSkeleton& emp = skeleton->tables[1];

  BoundedDatabase db;
  auto dept_data = std::make_shared<Table>(dept.schema);
  dept_data->AppendUnchecked(MakeRow(dept, 0, {}));
  dept_data->AppendUnchecked(MakeRow(dept, 1, {}));
  auto emp_data = std::make_shared<Table>(emp.schema);
  emp_data->AppendUnchecked(MakeRow(emp, 0, {{1, Value::Int(0)}, {2, Value::Real(1)}}));
  emp_data->AppendUnchecked(MakeRow(emp, 1, {{1, Value::Int(1)}, {2, Value::Real(1)}}));
  emp_data->AppendUnchecked(MakeRow(emp, 2, {{1, Value::Null()}, {2, Value::Real(0)}}));
  db.tables = {dept_data, emp_data};

  // Removing dept row 0 must cascade to the emp row referencing label 0,
  // renumber the surviving dept row to label 0, remap the surviving
  // foreign-key cell 1 -> 0, and renumber the emp keys to 0..1.
  BoundedDatabase after = RemoveRowCascade(*skeleton, db, 0, 0);
  ASSERT_EQ(after.tables[0]->row_count(), 1);
  ASSERT_EQ(after.tables[1]->row_count(), 2);
  EXPECT_EQ(after.tables[0]->row(0)[0].AsInt(), 0);
  EXPECT_EQ(after.tables[1]->row(0)[0].AsInt(), 0);
  EXPECT_EQ(after.tables[1]->row(0)[1].AsInt(), 0);  // was FK 1
  EXPECT_EQ(after.tables[1]->row(0)[2].AsNumeric(), 1.0);
  EXPECT_EQ(after.tables[1]->row(1)[0].AsInt(), 1);
  EXPECT_TRUE(after.tables[1]->row(1)[1].is_null());
  EXPECT_TRUE(SatisfiesUniqueKeys(*skeleton, after));

  // The original database is untouched (value semantics).
  EXPECT_EQ(db.tables[0]->row_count(), 2);
  EXPECT_EQ(db.tables[1]->row_count(), 3);
}

TEST_F(ShrinkTest, ShrinkIsMinimalDeterministicAndTerminates) {
  auto skeleton = SkeletonOf(
      "select e.sal from emp e, dept d where e.dno = d.dno and e.sal > 0");
  ASSERT_OK(skeleton);
  const TableSkeleton& dept = skeleton->tables[0];
  const TableSkeleton& emp = skeleton->tables[1];

  // Synthetic refutation oracle: "some emp row has sal == 1".
  auto refutes = [](const BoundedDatabase& db) -> Result<bool> {
    for (const Value& sal : db.tables[1]->column(2)) {
      if (!sal.is_null() && sal.AsNumeric() == 1.0) return true;
    }
    return false;
  };

  BoundedDatabase db;
  auto dept_data = std::make_shared<Table>(dept.schema);
  dept_data->AppendUnchecked(MakeRow(dept, 0, {}));
  dept_data->AppendUnchecked(MakeRow(dept, 1, {}));
  auto emp_data = std::make_shared<Table>(emp.schema);
  emp_data->AppendUnchecked(MakeRow(emp, 0, {{1, Value::Int(0)}, {2, Value::Real(1)}}));
  emp_data->AppendUnchecked(MakeRow(emp, 1, {{1, Value::Int(1)}, {2, Value::Real(1)}}));
  emp_data->AppendUnchecked(MakeRow(emp, 2, {{1, Value::Null()}, {2, Value::Real(0)}}));
  db.tables = {dept_data, emp_data};

  ShrinkStats stats;
  auto shrunk = ShrinkCounterexample(*skeleton, db, refutes, &stats);
  ASSERT_OK(shrunk);
  auto still = refutes(*shrunk);
  ASSERT_OK(still);
  EXPECT_TRUE(*still);
  EXPECT_GT(stats.oracle_calls, 0);
  EXPECT_GT(stats.rows_removed, 0);
  EXPECT_TRUE(SatisfiesUniqueKeys(*skeleton, *shrunk));

  // The oracle needs one emp row; its FK can only cascade-bind one dept row.
  EXPECT_LE(shrunk->total_rows(), 2);

  // 1-minimality over row deletions: removing any remaining row (with its
  // cascade) must make the refutation disappear.
  for (size_t t = 0; t < shrunk->tables.size(); ++t) {
    for (int64_t r = 0; r < shrunk->tables[t]->row_count(); ++r) {
      BoundedDatabase smaller =
          RemoveRowCascade(*skeleton, *shrunk, static_cast<int>(t), r);
      auto fires = refutes(smaller);
      ASSERT_OK(fires);
      EXPECT_FALSE(*fires) << "removing table " << t << " row " << r
                           << " left a smaller refuting database";
    }
  }

  // Determinism: shrinking the same database again yields the same result.
  auto again = ShrinkCounterexample(*skeleton, db, refutes, nullptr);
  ASSERT_OK(again);
  EXPECT_EQ(Stringify(*shrunk), Stringify(*again));
}

}  // namespace
}  // namespace aggview
