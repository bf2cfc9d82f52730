#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "test_util.h"

namespace aggview {
namespace {

/// The proof suite (verify/prover.h): one exhaustive small-scope run per
/// transformation rule family. Each test optimizes the same SQL under the
/// traditional configuration and under the extended (aggregate-view)
/// configuration, then executes both plans on *every* database within the
/// bounds — rows 0..max_rows per table, column domains {NULL, 0, 1} plus the
/// query's literals — and asserts byte-identical result fingerprints
/// throughout. `proved == true` is a genuine exhaustiveness claim at the
/// bound, not a sample: the mutation harness (prover_mutation_test.cc) shows
/// the same runs refute unsound variants of each rule.
///
/// Literals in the suite's SQL stay within the small-scope domain so the
/// enumerated databases exercise both sides of every comparison.

class ProverTest : public ::testing::Test {
 protected:
  ProverTest() : fixture_(MakeEmpDept()) {}

  /// Proves traditional vs extended plans equivalent on the small scope.
  SqlProof Prove(const std::string& sql, const std::string& name,
                 int max_rows = 3) {
    OptimizerOptions extended;
    ProverOptions options;
    options.bounds.max_rows = max_rows;
    options.name = name;
    auto proof = ProveSqlTransformation(fixture_.catalog.get(), sql,
                                        TraditionalOptions(), extended, options);
    EXPECT_TRUE(proof.ok()) << proof.status().ToString();
    if (!proof.ok()) return SqlProof{};
    return std::move(*proof);
  }

  void ExpectProved(const SqlProof& proof) {
    EXPECT_TRUE(proof.result.proved)
        << (proof.result.counterexample
                ? proof.result.counterexample->repro
                : std::string("refuted without counterexample"));
    EXPECT_GT(proof.result.databases_checked, 0);
    EXPECT_FALSE(proof.result.counterexample.has_value());
  }

  EmpDeptFixture fixture_;
};

TEST_F(ProverTest, PullUpFamily) {
  // Example 1 of the paper with small-scope literals: an aggregate view
  // joined to a base relation, eligible for view pull-up and shrinking.
  SqlProof proof = Prove(R"sql(
create view a1 (dno, asal) as
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
select e1.sal
from emp e1, a1 b
where e1.dno = b.dno and e1.age < 1 and e1.sal > b.asal
)sql",
                         "pullup_family");
  ExpectProved(proof);
}

TEST_F(ProverTest, InvariantGroupingFamily) {
  // Example 2 of the paper with a small-scope literal: dept is removable
  // from under the group-by (foreign-key join covers its key), so the
  // extended optimizer may aggregate emp before the join.
  SqlProof proof = Prove(R"sql(
select e.dno, avg(e.sal)
from emp e, dept d
where e.dno = d.dno and d.budget < 1
group by e.dno
)sql",
                         "invariant_family");
  ExpectProved(proof);
}

TEST_F(ProverTest, InvariantGroupingMinMaxFamily) {
  // Duplicate-insensitive aggregates take the same invariant-grouping path
  // but their legality still rests on the key condition (the waiver of
  // exactly this condition is mutation bug 1).
  SqlProof proof = Prove(R"sql(
select e.dno, min(e.sal), max(e.sal)
from emp e, dept d
where e.dno = d.dno
group by e.dno
)sql",
                         "invariant_minmax_family");
  ExpectProved(proof);
}

TEST_F(ProverTest, CoalescingCountFamily) {
  // Scalar COUNT(*) over a join: the coalescing lane pre-aggregates below
  // the join and combines partial counts with kCountSum — the combine rule
  // mutation bug 3 corrupts. The scope includes the empty database, where
  // SUM-of-partials and COUNT-combine genuinely differ.
  SqlProof proof = Prove(R"sql(
select count(*) from emp e, dept d where e.dno = d.dno
)sql",
                         "coalescing_count_family");
  ExpectProved(proof);
}

TEST_F(ProverTest, CoalescingSumGroupedFamily) {
  SqlProof proof = Prove(R"sql(
select e.dno, sum(e.sal), count(*)
from emp e, dept d
where e.dno = d.dno
group by e.dno
)sql",
                         "coalescing_sum_family");
  ExpectProved(proof);
}

/// AVG splitting is the subtlest coalescing rule: the partial count must be
/// COUNT(arg), not COUNT(*), or NULL arguments inflate the denominator.
/// This proof is plan-level (eager vs lazy over the same query) so the NULL
/// case is reached regardless of which plan the optimizer would pick.
TEST_F(ProverTest, CoalescingAvgSplitWithNulls) {
  Query q(fixture_.catalog.get());
  int e = q.AddRangeVar(fixture_.tables.emp, "e");
  int f = q.AddRangeVar(fixture_.tables.dept, "f");
  const RangeVar& re = q.range_var(e);
  const RangeVar& rf = q.range_var(f);
  ColId e_dno = re.columns[1], e_sal = re.columns[2];
  ColId f_dno = rf.columns[0];
  q.base_rels() = {e, f};
  q.predicates() = {EqCols(e_dno, f_dno)};

  GroupBySpec gb;
  gb.grouping = {e_dno};
  gb.aggregates = {{AggKind::kAvg, {e_sal}, q.columns().Add("asal", DataType::kDouble)}};
  q.top_group_by() = gb;
  q.select_list() = gb.OutputColumns();

  const std::vector<ColId> outs = gb.OutputColumns();
  std::set<ColId> needed(outs.begin(), outs.end());
  needed.insert(e_dno);
  needed.insert(e_sal);
  needed.insert(f_dno);

  PlanBuilder b(q);
  PlanPtr lazy = b.GroupBy(
      b.BestJoin(b.Scan(e, {}, needed), b.Scan(f, {}, needed),
                 {EqCols(e_dno, f_dno)}, needed),
      gb, needed);

  auto split = SplitForCoalescing(gb, q.range_var(e).ColumnSet(), {e_dno},
                                  &q.columns());
  ASSERT_OK(split);
  GroupBySpec final_spec;
  final_spec.grouping = gb.grouping;
  final_spec.aggregates = split->final_aggregates;
  std::set<ColId> needed2 = needed;
  for (ColId c : split->partial.OutputColumns()) needed2.insert(c);
  PlanPtr eager = b.GroupBy(
      b.BestJoin(b.GroupBy(b.Scan(e, {}, needed2), split->partial, needed2),
                 b.Scan(f, {}, needed2), {EqCols(e_dno, f_dno)}, needed2),
      final_spec, needed2);

  auto sources = std::vector<SkeletonSource>{SkeletonSource{&q, {}}};
  auto skeleton = ExtractSkeleton(*fixture_.catalog, sources);
  ASSERT_OK(skeleton);

  ProverOptions options;
  options.name = "coalescing_avg_split";
  auto result = ProveEquivalence(fixture_.catalog.get(), *skeleton,
                                 ExecutionSpec{&q, lazy, ExecContext{}, "lazy"},
                                 ExecutionSpec{&q, eager, ExecContext{}, "eager"},
                                 options);
  ASSERT_OK(result);
  EXPECT_TRUE(result->proved)
      << (result->counterexample ? result->counterexample->repro : "");
  EXPECT_GT(result->databases_checked, 0);
}

/// Outer-join variants: hash left-outer join vs block-nested-loop left-outer
/// join must agree everywhere, including the NULL-padded rows (the column
/// domain includes NULL, so padding NULLs and data NULLs coexist).
TEST_F(ProverTest, OuterJoinAlgorithmEquivalence) {
  Query q(fixture_.catalog.get());
  int d = q.AddRangeVar(fixture_.tables.dept, "d");
  int e = q.AddRangeVar(fixture_.tables.emp, "e");
  ColId d_dno = q.range_var(d).columns[0];
  ColId e_eno = q.range_var(e).columns[0];
  ColId e_dno = q.range_var(e).columns[1];
  ColId e_sal = q.range_var(e).columns[2];
  q.base_rels() = {d, e};
  q.predicates() = {EqCols(d_dno, e_dno)};
  q.select_list() = {d_dno, e_eno, e_sal};

  std::set<ColId> needed = {d_dno, e_eno, e_dno, e_sal};
  PlanBuilder b(q);
  PlanPtr hash = b.Project(
      b.LeftOuterJoin(b.Scan(d, {}, needed), b.Scan(e, {}, needed),
                      {EqCols(d_dno, e_dno)}, needed),
      q.select_list());

  // Same join in outer mode on the nested-loop operator.
  PlanPtr bnl_inner = b.Join(JoinAlgo::kBlockNestedLoop, b.Scan(d, {}, needed),
                             b.Scan(e, {}, needed), {EqCols(d_dno, e_dno)}, needed);
  auto bnl_join = std::make_shared<PlanNode>(*bnl_inner);
  bnl_join->left_outer = true;
  PlanPtr bnl = b.Project(bnl_join, q.select_list());

  auto skeleton =
      ExtractSkeleton(*fixture_.catalog, {SkeletonSource{&q, {}}});
  ASSERT_OK(skeleton);

  ProverOptions options;
  options.name = "outerjoin_algos";
  auto result = ProveEquivalence(fixture_.catalog.get(), *skeleton,
                                 ExecutionSpec{&q, hash, ExecContext{}, "hash outer"},
                                 ExecutionSpec{&q, bnl, ExecContext{}, "bnl outer"},
                                 options);
  ASSERT_OK(result);
  EXPECT_TRUE(result->proved)
      << (result->counterexample ? result->counterexample->repro : "");
  EXPECT_GT(result->databases_checked, 0);
}

/// Execution-strategy equivalence: the same plan under different batch
/// geometries (the fuzzer's divergence-shrinking mode uses exactly this).
TEST_F(ProverTest, BatchGeometryEquivalence) {
  auto bound = ParseAndBind(*fixture_.catalog, Example2Sql());
  ASSERT_OK(bound);
  auto optimized = OptimizeTraditional(*bound);
  ASSERT_OK(optimized);

  auto skeleton = ExtractSkeleton(*fixture_.catalog,
                                  {SkeletonSource{&optimized->query, {}}});
  ASSERT_OK(skeleton);

  ProverOptions options;
  options.name = "batch_geometry";
  options.bounds.max_rows = 2;
  auto result = ProveEquivalence(
      fixture_.catalog.get(), *skeleton,
      ExecutionSpec{&optimized->query, optimized->plan, ExecContext{}, "default"},
      ExecutionSpec{&optimized->query, optimized->plan,
                    ExecContext{}.WithBatchSize(1), "batch=1"},
      options);
  ASSERT_OK(result);
  EXPECT_TRUE(result->proved)
      << (result->counterexample ? result->counterexample->repro : "");
}

/// Materialized-view rewrite certification on the small scope: the base plan
/// and the view-answering plan must agree on *every* enumerated emp database.
/// The backing table is derived state, so the post_install hook re-runs
/// REFRESH for each installed database (and each shrink probe) — without it
/// the view plan would answer from content belonging to a different database.
TEST_F(ProverTest, MatViewRewriteCertifiedOnSmallScope) {
  ASSERT_OK(ExecuteMatViewStatement(
      fixture_.catalog.get(),
      "create materialized view pdsal (dno, total) as "
      "select e.dno, sum(e.sal) from emp e group by e.dno"));

  const std::string sql =
      "select e.dno, sum(e.sal) from emp e group by e.dno";
  auto base = ParseAndBind(*fixture_.catalog, sql);
  ASSERT_OK(base.status());
  auto base_opt = OptimizeTraditional(*base);
  ASSERT_OK(base_opt.status());

  auto rewritten = ParseAndBind(*fixture_.catalog, sql);
  ASSERT_OK(rewritten.status());
  std::vector<ViewRewriteCertificate> certs;
  auto rewrites =
      RewriteWithMaterializedViews(*fixture_.catalog, &*rewritten, &certs);
  ASSERT_OK(rewrites.status());
  ASSERT_EQ(*rewrites, 1);
  auto view_opt = OptimizeTraditional(*rewritten);
  ASSERT_OK(view_opt.status());

  // Skeleton over the base query only: emp is enumerated; the backing table
  // stays out of the swap guard and is recomputed by the hook instead.
  auto skeleton = ExtractSkeleton(*fixture_.catalog,
                                  {SkeletonSource{&base_opt->query, {}}});
  ASSERT_OK(skeleton);

  ProverOptions options;
  options.bounds.max_rows = 3;
  options.name = "matview_rewrite";
  options.post_install = [](Catalog* c) {
    return RefreshMaterializedView(c, "pdsal");
  };
  auto result = ProveEquivalence(
      fixture_.catalog.get(), *skeleton,
      ExecutionSpec{&base_opt->query, base_opt->plan, ExecContext{}, "base"},
      ExecutionSpec{&view_opt->query, view_opt->plan, ExecContext{}, "view"},
      options);
  ASSERT_OK(result);
  EXPECT_TRUE(result->proved)
      << (result->counterexample ? result->counterexample->repro : "");
  EXPECT_GT(result->databases_checked, 0);
}

/// Join-view maintenance certified on the small scope: for every
/// enumerated emp/dept database, post_install REFRESHes the emp ⋈ dept view
/// `name` and then applies two deltas through ApplyTableDelta: one fixed emp
/// row inserted, then deleted again. The database ends as installed, but the
/// backing content went through the insert and retract merge paths, so the
/// view-answered plan must still agree with the base plan everywhere.
ProofResult ProveJoinViewMaintenance(Catalog* catalog, const std::string& name,
                                     const std::string& sql) {
  const Status created =
      ExecuteMatViewStatement(
          catalog, "create materialized view " + name + " as " + sql)
          .status();
  EXPECT_OK(created);
  auto base = ParseAndBind(*catalog, sql);
  EXPECT_OK(base.status());
  auto base_opt = OptimizeTraditional(*base);
  EXPECT_OK(base_opt.status());
  auto rewritten = ParseAndBind(*catalog, sql);
  EXPECT_OK(rewritten.status());
  std::vector<ViewRewriteCertificate> certs;
  auto rewrites = RewriteWithMaterializedViews(*catalog, &*rewritten, &certs);
  EXPECT_OK(rewrites.status());
  EXPECT_EQ(*rewrites, 1);
  auto view_opt = OptimizeTraditional(*rewritten);
  EXPECT_OK(view_opt.status());
  auto skeleton =
      ExtractSkeleton(*catalog, {SkeletonSource{&base_opt->query, {}}});
  EXPECT_OK(skeleton.status());
  if (!created.ok() || !skeleton.ok() || !base_opt.ok() || !view_opt.ok()) {
    return ProofResult{};
  }

  const TableId emp = *catalog->FindTable("emp");
  ProverOptions options;
  options.bounds.max_rows = 2;
  options.name = name;
  options.post_install = [name, emp](Catalog* c) -> Status {
    AGGVIEW_RETURN_NOT_OK(RefreshMaterializedView(c, name));
    TableDelta insert;
    insert.table = emp;
    insert.inserts = {
        {Value::Int(99), Value::Int(1), Value::Real(1.0), Value::Int(1)}};
    AGGVIEW_RETURN_NOT_OK(ApplyTableDelta(c, insert));
    TableDelta retract;
    retract.table = emp;
    retract.deletes = {c->table(emp).data->row_count() - 1};
    AGGVIEW_RETURN_NOT_OK(ApplyTableDelta(c, retract));
    if (!c->IsViewFresh(*c->FindView(name))) {
      return Status::Internal("join view went stale under maintenance");
    }
    return Status::OK();
  };
  auto result = ProveEquivalence(
      catalog, *skeleton,
      ExecutionSpec{&base_opt->query, base_opt->plan, ExecContext{}, "base"},
      ExecutionSpec{&view_opt->query, view_opt->plan, ExecContext{}, "view"},
      options);
  EXPECT_OK(result.status());
  return result.ok() ? *result : ProofResult{};
}

TEST_F(ProverTest, JoinViewMaintenanceCertifiedOnSmallScope) {
  ProofResult result = ProveJoinViewMaintenance(
      fixture_.catalog.get(), "pjoin",
      "select e.dno, sum(e.sal), count(e.sal), count(*) from emp e, dept d "
      "where e.dno = d.dno group by e.dno");
  EXPECT_TRUE(result.proved)
      << (result.counterexample ? result.counterexample->repro : "");
  EXPECT_GT(result.databases_checked, 0);
}

TEST_F(ProverTest, JoinViewMinMaxMaintenanceCertifiedOnSmallScope) {
  // The retraction hits a non-NULL extremum, so every database also runs
  // the MIN/MAX rescan.
  ProofResult result = ProveJoinViewMaintenance(
      fixture_.catalog.get(), "pextremes",
      "select d.budget, min(e.sal), max(e.age), count(*) from emp e, dept d "
      "where e.dno = d.dno group by d.budget");
  EXPECT_TRUE(result.proved)
      << (result.counterexample ? result.counterexample->repro : "");
  EXPECT_GT(result.databases_checked, 0);
}

}  // namespace
}  // namespace aggview
