#include "analysis/fuzzer.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/certificate.h"
#include "analysis/dataflow.h"
#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "exec/executor.h"
#include "optimizer/aggview_optimizer.h"
#include "optimizer/plan_validator.h"
#include "optimizer/traditional.h"
#include "server/server.h"
#include "sql/binder.h"
#include "tpcd/dbgen.h"
#include "verify/prover.h"
#include "verify/skeleton.h"
#include "view/maintenance.h"
#include "view/matview.h"

namespace aggview {

namespace {

std::string Lit(Rng* rng, int64_t lo, int64_t hi) {
  return std::to_string(rng->Uniform(lo, hi));
}

/// What an aggregate output measures, so top-block predicates compare it
/// against a column (or literal range) of the same scale.
enum class AggDomain { kSal, kAge, kCount };

struct AggOut {
  std::string col;  // output column name inside the view
  AggDomain domain = AggDomain::kSal;
};

struct ViewSpec {
  std::string name;
  std::string sql;  // the full CREATE VIEW statement
  std::vector<AggOut> aggs;
};

/// One random view: an emp block (optionally joined with dept or a second
/// emp), grouped by dno (optionally also age), with 1-2 aggregates and
/// optional WHERE/HAVING.
ViewSpec GenerateView(Rng* rng, int index) {
  ViewSpec view;
  view.name = "v" + std::to_string(index);
  std::string e = "ve" + std::to_string(index);

  std::string from = "emp " + e;
  std::vector<std::string> where;
  bool with_dept = rng->Chance(0.3);
  bool with_self = !with_dept && rng->Chance(0.15);
  std::string d = "vd" + std::to_string(index);
  std::string f = "vf" + std::to_string(index);
  if (with_dept) {
    from += ", dept " + d;
    where.push_back(e + ".dno = " + d + ".dno");
    if (rng->Chance(0.5)) {
      where.push_back(d + ".budget < " + Lit(rng, 300'000, 4'000'000));
    }
  }
  if (with_self) {
    from += ", emp " + f;
    where.push_back(e + ".dno = " + f + ".dno");
    if (rng->Chance(0.6)) {
      where.push_back(f + ".age > " + Lit(rng, 20, 50));
    }
  }
  if (rng->Chance(0.4)) where.push_back(e + ".age < " + Lit(rng, 19, 60));
  if (rng->Chance(0.25)) {
    where.push_back(e + ".sal > " + Lit(rng, 30'000, 150'000));
  }

  std::vector<std::string> out_cols = {"dno"};
  std::vector<std::string> select = {e + ".dno"};
  std::vector<std::string> group = {e + ".dno"};
  if (rng->Chance(0.2)) {
    out_cols.push_back("gage");
    select.push_back(e + ".age");
    group.push_back(e + ".age");
  }

  int num_aggs = static_cast<int>(rng->Uniform(1, 2));
  for (int a = 0; a < num_aggs; ++a) {
    AggOut out;
    out.col = "a" + std::to_string(a);
    std::string call;
    switch (rng->Uniform(0, 6)) {
      case 0:
        call = "avg(" + e + ".sal)";
        out.domain = AggDomain::kSal;
        break;
      case 1:
        call = "sum(" + e + ".sal)";
        out.domain = AggDomain::kSal;
        break;
      case 2:
        call = "min(" + e + ".sal)";
        out.domain = AggDomain::kSal;
        break;
      case 3:
        call = "max(" + e + ".age)";
        out.domain = AggDomain::kAge;
        break;
      case 4:
        call = "count(*)";
        out.domain = AggDomain::kCount;
        break;
      case 5:
        call = "count(" + e + ".sal)";
        out.domain = AggDomain::kCount;
        break;
      default:
        call = "median(" + e + ".sal)";
        out.domain = AggDomain::kSal;
        break;
    }
    out_cols.push_back(out.col);
    select.push_back(call);
    view.aggs.push_back(std::move(out));
  }

  std::string sql = "create view " + view.name + " (";
  for (size_t i = 0; i < out_cols.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += out_cols[i];
  }
  sql += ") as\n  select ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += select[i];
  }
  sql += "\n  from " + from;
  if (!where.empty()) {
    sql += "\n  where ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql += " and ";
      sql += where[i];
    }
  }
  sql += "\n  group by ";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += group[i];
  }
  if (rng->Chance(0.2)) {
    sql += "\n  having count(*) > " + Lit(rng, 1, 3);
  }
  sql += ";\n";
  view.sql = std::move(sql);
  return view;
}

/// Reads AGGVIEW_FUZZ_SEED: unset/empty -> nullopt (normal sweep); otherwise
/// a strict base-10 uint64 naming the single per-query seed to replay.
Result<std::optional<uint64_t>> FuzzReplaySeedFromEnv() {
  const char* raw = std::getenv("AGGVIEW_FUZZ_SEED");
  if (raw == nullptr || *raw == '\0') return std::optional<uint64_t>{};
  uint64_t value = 0;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return Status::InvalidArgument(
          "AGGVIEW_FUZZ_SEED must be a base-10 unsigned integer, got: " +
          std::string(raw));
    }
    uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("AGGVIEW_FUZZ_SEED overflows uint64: " +
                                     std::string(raw));
    }
    value = value * 10 + digit;
  }
  return std::optional<uint64_t>(value);
}

/// On a divergence the fuzzer does not shrink its own generated database
/// (dbgen keys are 1-based, violating the shrinker's canonical-label
/// invariant); instead it re-proves the failing plan pair on the small
/// scope, where any counterexample found is minimized and rendered as a
/// self-contained repro. Returns a note to append to the failure message.
std::string MinimizeDivergenceNote(Catalog* catalog, const Query& pre_query,
                                   const PlanPtr& pre_plan,
                                   const ExecContext& pre_ctx,
                                   const Query& post_query,
                                   const PlanPtr& post_plan,
                                   const ExecContext& post_ctx,
                                   const std::string& name) {
  std::vector<SkeletonSource> sources;
  sources.push_back(SkeletonSource{&pre_query, {}});
  if (&post_query != &pre_query) {
    sources.push_back(SkeletonSource{&post_query, {}});
  }
  auto skeleton = ExtractSkeleton(*catalog, sources);
  if (!skeleton.ok()) {
    return "\n(no minimized counterexample: skeleton extraction failed: " +
           skeleton.status().ToString() + ")";
  }
  ProverOptions prover_options;
  prover_options.bounds.max_rows = 2;
  prover_options.bounds.max_databases = 200'000;
  prover_options.name = name;
  ExecutionSpec pre{&pre_query, pre_plan, pre_ctx, "reference"};
  ExecutionSpec post{&post_query, post_plan, post_ctx, name};
  auto proof = ProveEquivalence(catalog, *skeleton, pre, post, prover_options);
  if (!proof.ok()) {
    return "\n(no minimized counterexample: prover failed: " +
           proof.status().ToString() + ")";
  }
  if (!proof->counterexample.has_value()) {
    return "\n(prover found no counterexample among " +
           std::to_string(proof->databases_checked) +
           " small-scope databases; the divergence may need more rows or "
           "specific values than the bounded search covers)";
  }
  const Counterexample& cx = *proof->counterexample;
  return "\nminimized counterexample (" + std::to_string(cx.db.total_rows()) +
         " rows):\n" + cx.repro;
}

}  // namespace

std::string GenerateAggViewSql(Rng* rng,
                               std::vector<std::string>* view_ddl) {
  int num_views = static_cast<int>(rng->Uniform(0, 2));
  std::vector<ViewSpec> views;
  std::string sql;
  for (int i = 0; i < num_views; ++i) {
    views.push_back(GenerateView(rng, i));
    sql += views.back().sql;
    if (view_ddl != nullptr) view_ddl->push_back(views.back().sql);
  }

  // Top block: emp e1 always, optional self-join / dept, every view joined
  // through dno.
  std::string from = "emp e1";
  std::vector<std::string> where;
  bool with_self = rng->Chance(0.25);
  bool with_dept = rng->Chance(0.25);
  if (with_self) {
    from += ", emp e2";
    where.push_back("e1.dno = e2.dno");
    if (rng->Chance(0.5)) where.push_back("e2.age > " + Lit(rng, 20, 50));
  }
  if (with_dept) {
    from += ", dept d";
    where.push_back("e1.dno = d.dno");
    if (rng->Chance(0.6)) {
      where.push_back("d.budget < " + Lit(rng, 300'000, 4'000'000));
    }
  }
  for (const ViewSpec& v : views) {
    from += ", " + v.name;
    where.push_back("e1.dno = " + v.name + ".dno");
    // Aggregate-output predicates: compare against a base column of the same
    // domain (the deferred-HAVING path of pull-up) or against a literal.
    for (const AggOut& agg : v.aggs) {
      if (!rng->Chance(0.55)) continue;
      std::string out = v.name + "." + agg.col;
      switch (agg.domain) {
        case AggDomain::kSal:
          where.push_back(rng->Chance(0.7) ? "e1.sal > " + out
                                           : out + " < " + Lit(rng, 40'000,
                                                               500'000));
          break;
        case AggDomain::kAge:
          where.push_back(rng->Chance(0.7) ? "e1.age < " + out
                                           : out + " > " + Lit(rng, 25, 60));
          break;
        case AggDomain::kCount:
          where.push_back(out + " > " + Lit(rng, 0, 4));
          break;
      }
    }
  }
  if (rng->Chance(0.5)) where.push_back("e1.age < " + Lit(rng, 19, 60));
  if (rng->Chance(0.2)) {
    where.push_back("e1.sal > " + Lit(rng, 30'000, 150'000));
  }

  std::vector<std::string> select;
  std::string tail;
  if (rng->Chance(0.4)) {
    // Aggregated top block: grouped by e1.dno, or scalar.
    bool scalar = rng->Chance(0.3);
    if (!scalar) select.push_back("e1.dno");
    select.push_back("count(*)");
    if (rng->Chance(0.5)) select.push_back("sum(e1.sal)");
    if (rng->Chance(0.3)) select.push_back("min(e1.age)");
    if (!scalar) {
      tail = "\ngroup by e1.dno";
      if (rng->Chance(0.35)) {
        tail += "\nhaving count(*) > " + Lit(rng, 1, 3);
      }
    }
  } else {
    if (rng->Chance(0.6)) select.push_back("e1.dno");
    if (rng->Chance(0.6)) select.push_back("e1.sal");
    for (const ViewSpec& v : views) {
      if (rng->Chance(0.5) && !v.aggs.empty()) {
        select.push_back(v.name + "." + v.aggs[0].col);
      }
    }
    if (select.empty()) select.push_back("e1.eno");
  }

  sql += "select ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += select[i];
  }
  sql += "\nfrom " + from;
  if (!where.empty()) {
    sql += "\nwhere ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql += " and ";
      sql += where[i];
    }
  }
  sql += tail + "\n";
  return sql;
}

namespace {

/// The rows of `table`, in order.
std::vector<Row> SnapshotRows(const Table& table) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(table.row_count()));
  for (int64_t i = 0; i < table.row_count(); ++i) rows.push_back(table.row(i));
  return rows;
}

/// Puts `rows` back as table `id`'s data and recomputes its statistics.
void RestoreRows(Catalog* catalog, TableId id, std::vector<Row> rows) {
  TableDef& def = catalog->mutable_table(id);
  auto restored = std::make_shared<Table>(def.schema);
  restored->Reserve(static_cast<int64_t>(rows.size()));
  for (Row& r : rows) restored->AppendUnchecked(std::move(r));
  def.data = std::move(restored);
  def.stats = ComputeStats(*def.data);
}

/// The materialized-view leg of one fuzz query: creates every supported
/// inline view as a materialized view, checks that the rewriter answers the
/// query from the backing tables byte-identically, then applies a random
/// insert+delete delta to emp or (in about a third of queries) to dept. Every
/// view that does not self-join the delta table must still be fresh, i.e.
/// maintained incrementally; only the self-join views are REFRESHed. The
/// *same* view-answering plan is then re-checked against a base
/// re-execution, so maintained backing content is compared against a full
/// recompute, and each view's backing content is byte-compared against a
/// REFRESH. Restores emp and dept and drops the views before returning, on
/// every path.
Status MatViewDifferential(Catalog* catalog, const EmpDeptTables& tables,
                           const std::string& sql,
                           const std::vector<std::string>& view_ddls,
                           const std::string& reference,
                           const OptimizedQuery& reference_opt,
                           const std::string& seed_note, Rng* rng,
                           FuzzReport* report) {
  auto fail = [&](const std::string& what, const Status& st) {
    return Status::Internal("materialized-view differential failure (" + what +
                            ") on query:\n" + sql + seed_note + "\n" +
                            st.ToString());
  };

  // Re-issue each inline definition as CREATE MATERIALIZED VIEW under a
  // fresh name ("v0" -> "mv0"; the inline views keep their names, so both
  // forms coexist). Definitions the matview layer rejects (HAVING, MEDIAN)
  // are expected skips, not failures.
  static const char kCreatePrefix[] = "create view ";
  std::vector<std::string> created;
  for (size_t vi = 0; vi < view_ddls.size(); ++vi) {
    std::string ddl = "create materialized view m" +
                      view_ddls[vi].substr(sizeof(kCreatePrefix) - 1);
    auto res = ExecuteMatViewStatement(catalog, ddl);
    if (res.ok()) {
      created.push_back("mv" + std::to_string(vi));
    } else {
      ++report->matview_skips;
    }
  }
  if (created.empty()) return Status::OK();

  std::vector<Row> emp_rows = SnapshotRows(*catalog->table(tables.emp).data);
  std::vector<Row> dept_rows =
      SnapshotRows(*catalog->table(tables.dept).data);
  Status st = [&]() -> Status {
    // Phase 1: the rewriter must answer every materialized block, and the
    // view-backed execution must reproduce the reference bytes.
    AGGVIEW_ASSIGN_OR_RETURN(
        OptimizedQuery opt,
        PrepareStatement(*catalog, sql, /*use_materialized_views=*/true,
                         /*use_traditional=*/false, TraditionalOptions()));
    const int rewrites = static_cast<int>(opt.audit.view_rewrites.size());
    if (rewrites < static_cast<int>(created.size())) {
      return Status::Internal(
          "rewriter answered " + std::to_string(rewrites) + " of " +
          std::to_string(created.size()) +
          " blocks whose definitions were materialized verbatim");
    }
    AGGVIEW_RETURN_NOT_OK(ValidatePlan(opt.plan, opt.query));
    AGGVIEW_RETURN_NOT_OK(AnalyzePlan(opt.plan, opt.query));
    AGGVIEW_RETURN_NOT_OK(VerifyAudit(opt.query, opt.audit));
    AGGVIEW_ASSIGN_OR_RETURN(
        QueryResult answered, ExecutePlan(opt.plan, opt.query, ExecContext{}));
    if (answered.Fingerprint() != reference) {
      return Status::Internal(
          "view-answered execution diverges from the reference");
    }
    report->matview_rewrite_checks += rewrites;

    // Phase 2: a random delta (inserts merging into existing groups plus
    // deletes, the retraction path), on emp or, so that the ΔS ⋈ emp side of
    // the join views is covered, on dept.
    TableDelta delta;
    if (rng->Chance(1.0 / 3)) {
      // Departments are deleted, and some come back under the same key with
      // a new budget: their employees leave one budget group for another.
      delta.table = tables.dept;
      std::set<int64_t> deletes;
      const int num_deletes = static_cast<int>(rng->Uniform(1, 2));
      for (int j = 0; j < num_deletes; ++j) {
        deletes.insert(
            rng->Uniform(0, static_cast<int64_t>(dept_rows.size()) - 1));
      }
      for (int64_t i : deletes) {
        if (!rng->Chance(0.5)) continue;
        const double budget =
            static_cast<double>(rng->Uniform(100'000, 5'000'000));
        delta.inserts.push_back(
            {dept_rows[static_cast<size_t>(i)][0], Value::Real(budget)});
      }
      delta.deletes.assign(deletes.begin(), deletes.end());
    } else {
      delta.table = tables.emp;
      const int64_t nrows = static_cast<int64_t>(emp_rows.size());
      const int num_inserts = static_cast<int>(rng->Uniform(1, 3));
      for (int j = 0; j < num_inserts; ++j) {
        const Row& donor =
            emp_rows[static_cast<size_t>(rng->Uniform(0, nrows - 1))];
        Value sal = rng->Chance(0.15)
                        ? Value::Null()
                        : Value::Real(static_cast<double>(
                              rng->Uniform(30'000, 150'000)));
        delta.inserts.push_back({Value::Int(1'000'000 + j), donor[1],
                                 std::move(sal),
                                 Value::Int(rng->Uniform(18, 65))});
      }
      std::set<int64_t> deletes;
      const int num_deletes = static_cast<int>(rng->Uniform(1, 3));
      for (int j = 0; j < num_deletes; ++j) {
        deletes.insert(rng->Uniform(0, nrows - 1));
      }
      delta.deletes.assign(deletes.begin(), deletes.end());
    }
    AGGVIEW_RETURN_NOT_OK(ApplyTableDelta(catalog, delta, nullptr));
    // A maintainer bug must not hide behind a REFRESH: only a view that
    // reads the delta table twice (a self-join) may go stale.
    for (const std::string& name : created) {
      const ViewDefinition* view = catalog->FindView(name);
      const std::vector<TableId>& reads = view->base_tables;
      const auto refs = std::count(reads.begin(), reads.end(), delta.table);
      if (refs > 1) {
        AGGVIEW_RETURN_NOT_OK(RefreshMaterializedView(catalog, name));
      } else if (!catalog->IsViewFresh(*view)) {
        return Status::Internal("materialized view " + name +
                                " went stale under a delta it reads once");
      } else if (refs == 1 && reads.size() > 1) {
        ++report->matview_join_views_maintained;
      }
    }

    // The same plans re-executed over the mutated catalog: maintained (or
    // refreshed) backing content vs the base recompute, byte for byte.
    AGGVIEW_ASSIGN_OR_RETURN(
        QueryResult base_after,
        ExecutePlan(reference_opt.plan, reference_opt.query, ExecContext{}));
    AGGVIEW_ASSIGN_OR_RETURN(
        QueryResult view_after,
        ExecutePlan(opt.plan, opt.query, ExecContext{}));
    if (view_after.Fingerprint() != base_after.Fingerprint()) {
      return Status::Internal(
          "view-answered execution diverges from the base plan after an "
          "insert+delete delta on " + catalog->table(delta.table).name);
    }
    // The query reads the views' aggregates only where its predicates and
    // select list do, so the maintained backing content itself must also
    // equal a recompute.
    for (const std::string& name : created) {
      const std::string maintained = BackingFingerprint(*catalog, name);
      AGGVIEW_RETURN_NOT_OK(RefreshMaterializedView(catalog, name));
      if (BackingFingerprint(*catalog, name) != maintained) {
        return Status::Internal("maintained content of materialized view " +
                                name + " differs from a REFRESH after a "
                                "delta on " + catalog->table(delta.table).name);
      }
    }
    ++report->matview_delta_checks;
    return Status::OK();
  }();

  // Restore emp and dept exactly (data and stats) and drop the views, so the
  // next fuzz query sees the pristine database whatever happened above.
  RestoreRows(catalog, tables.emp, std::move(emp_rows));
  RestoreRows(catalog, tables.dept, std::move(dept_rows));
  for (const std::string& name : created) {
    Status dropped = catalog->DropView(name);
    if (st.ok() && !dropped.ok()) st = dropped;
  }
  if (!st.ok()) return fail("matview", st);
  return Status::OK();
}

/// Reads AGGVIEW_FUZZ_MATVIEW: any value other than unset/empty/"0" turns
/// the materialized-view leg on.
bool MatViewModeFromEnv() {
  const char* raw = std::getenv("AGGVIEW_FUZZ_MATVIEW");
  return raw != nullptr && *raw != '\0' && std::string(raw) != "0";
}

}  // namespace

Result<EmpDeptTables> CreateFuzzDatabase(const FuzzOptions& options,
                                         Catalog* catalog) {
  AGGVIEW_ASSIGN_OR_RETURN(EmpDeptTables tables, CreateEmpDeptSchema(catalog));
  EmpDeptOptions data;
  data.num_employees = options.num_employees;
  data.num_departments = options.num_departments;
  data.young_fraction = 0.2;
  data.seed = options.seed * 131 + 7;
  AGGVIEW_RETURN_NOT_OK(GenerateEmpDeptData(catalog, tables, data));
  return tables;
}

std::vector<OptimizerOptions> FuzzOptimizerConfigs(bool paranoid) {
  std::vector<OptimizerOptions> configs;
  configs.push_back(TraditionalOptions());
  OptimizerOptions greedy;
  greedy.max_pullup = 0;
  greedy.shrink_views = false;
  configs.push_back(greedy);
  configs.push_back(OptimizerOptions{});
  OptimizerOptions deep_pull;
  deep_pull.max_pullup = 3;
  deep_pull.require_shared_predicate = false;
  configs.push_back(deep_pull);
  for (OptimizerOptions& c : configs) c.paranoid = paranoid;
  return configs;
}

FuzzOptions DifferentialFuzzShard(int shard) {
  FuzzOptions options;
  options.seed = static_cast<uint64_t>(shard) * 6271 + 17;
  options.num_queries = 52;
  options.num_employees = 150 + 20 * shard;
  options.num_departments = 5 + shard % 7;
  options.paranoid = true;
  return options;
}

uint64_t FuzzQuerySeed(const FuzzOptions& options, int q) {
  return options.seed * 1000003ULL + static_cast<uint64_t>(q);
}

Result<FuzzReport> RunDifferentialFuzz(const FuzzOptions& options) {
  Catalog catalog;
  AGGVIEW_ASSIGN_OR_RETURN(EmpDeptTables tables,
                           CreateFuzzDatabase(options, &catalog));
  const std::vector<OptimizerOptions> configs =
      FuzzOptimizerConfigs(options.paranoid);

  // Each query gets its own derived seed, so any failure is replayable in
  // isolation: set AGGVIEW_FUZZ_SEED to the seed printed in the failure
  // message and the run regenerates exactly that one query (same data).
  AGGVIEW_ASSIGN_OR_RETURN(std::optional<uint64_t> replay,
                           FuzzReplaySeedFromEnv());
  const int num_queries = replay.has_value() ? 1 : options.num_queries;
  const bool matview_mode = options.materialize_views || MatViewModeFromEnv();

  FuzzReport report;
  for (int q = 0; q < num_queries; ++q) {
    const uint64_t query_seed =
        replay.has_value() ? *replay : FuzzQuerySeed(options, q);
    Rng rng(query_seed);
    std::vector<std::string> view_ddls;
    std::string sql = GenerateAggViewSql(&rng, &view_ddls);
    const std::string seed_note =
        "\nfailing query seed: " + std::to_string(query_seed) +
        " (set AGGVIEW_FUZZ_SEED=" + std::to_string(query_seed) +
        " to replay this query alone)";
    auto bound = ParseAndBind(catalog, sql);
    if (!bound.ok()) {
      return Status::Internal("fuzzer generated unbindable SQL:\n" + sql +
                              seed_note + "\n" + bound.status().ToString());
    }
    if (!bound->views().empty()) ++report.queries_with_views;

    std::string reference;
    std::optional<OptimizedQuery> reference_opt;
    for (size_t i = 0; i < configs.size(); ++i) {
      auto fail = [&](const std::string& what, const Status& st) {
        return Status::Internal("differential fuzz failure (config " +
                                std::to_string(i) + ", " + what +
                                ") on query:\n" + sql + seed_note + "\n" +
                                st.ToString());
      };
      auto optimized = OptimizeQueryWithAggViews(*bound, configs[i]);
      if (!optimized.ok()) return fail("optimize", optimized.status());
      report.plans_checked += optimized->counters.plans_checked;
      report.certificates_verified += optimized->counters.certificates_verified;

      Status valid = ValidatePlan(optimized->plan, optimized->query);
      if (!valid.ok()) return fail("validate", valid);
      Status analyzed = AnalyzePlan(optimized->plan, optimized->query);
      if (!analyzed.ok()) return fail("analyze", analyzed);
      Status audited = VerifyAudit(optimized->query, optimized->audit);
      if (!audited.ok()) return fail("audit", audited);

      // Every execution below runs with runtime dataflow self-verification:
      // the verifier's static facts (nullability, value domains, cardinality
      // bounds) are checked against every produced batch and every node's
      // final row count — the fuzzer tests the abstract interpretation
      // itself against real execution.
      DataflowVerifier verifier(optimized->plan, optimized->query);
      auto result = ExecutePlan(optimized->plan, optimized->query,
                                ExecContext::Default().WithVerify(&verifier));
      if (!result.ok()) return fail("execute", result.status());
      ++report.plans_compared;
      if (i == 0) {
        reference = result->Fingerprint();
        // The batch engine must be invisible to query semantics: the same
        // plan re-executed at degenerate and default batch sizes has to
        // produce a byte-identical fingerprint (size 1 is the row-at-a-time
        // engine's behaviour; size 2 exercises every mid-batch boundary).
        for (int batch_size : options.cross_batch_sizes) {
          auto rerun = ExecutePlan(optimized->plan, optimized->query,
                                   ExecContext{}
                                       .WithBatchSize(batch_size)
                                       .WithVerify(&verifier));
          if (!rerun.ok()) {
            return fail("execute at batch_size=" + std::to_string(batch_size),
                        rerun.status());
          }
          if (rerun->Fingerprint() != reference) {
            std::string note = MinimizeDivergenceNote(
                &catalog, optimized->query, optimized->plan, ExecContext{},
                optimized->query, optimized->plan,
                ExecContext{}.WithBatchSize(batch_size),
                "fuzz_batch" + std::to_string(batch_size));
            return fail("batch_size=" + std::to_string(batch_size) +
                            " diverges from the reference execution",
                        Status::Internal("fingerprints differ" + note));
          }
          ++report.batch_size_checks;
        }
        // Morsel-driven parallelism must be equally invisible: the same
        // plan re-executed at every (threads × batch size) combination has
        // to reproduce the serial reference fingerprint bit for bit. The
        // fuzzer's literals are all integers, so even SUM/AVG merges are
        // exact and order-independent — any divergence is a real race or a
        // morsel-boundary bug, not float noise.
        for (int threads : options.cross_thread_counts) {
          for (int batch_size : options.cross_thread_batch_sizes) {
            auto rerun = ExecutePlan(optimized->plan, optimized->query,
                                     ExecContext{}
                                         .WithThreads(threads)
                                         .WithBatchSize(batch_size)
                                         .WithVerify(&verifier));
            if (!rerun.ok()) {
              return fail("execute at threads=" + std::to_string(threads) +
                              " batch_size=" + std::to_string(batch_size),
                          rerun.status());
            }
            if (rerun->Fingerprint() != reference) {
              std::string note = MinimizeDivergenceNote(
                  &catalog, optimized->query, optimized->plan, ExecContext{},
                  optimized->query, optimized->plan,
                  ExecContext{}.WithThreads(threads).WithBatchSize(batch_size),
                  "fuzz_threads" + std::to_string(threads));
              return fail("threads=" + std::to_string(threads) +
                              " batch_size=" + std::to_string(batch_size) +
                              " diverges from the serial reference",
                          Status::Internal("fingerprints differ" + note));
            }
            ++report.thread_checks;
          }
        }
      } else if (result->Fingerprint() != reference) {
        std::string note =
            reference_opt.has_value()
                ? MinimizeDivergenceNote(
                      &catalog, reference_opt->query, reference_opt->plan,
                      ExecContext{}, optimized->query, optimized->plan,
                      ExecContext{}, "fuzz_config" + std::to_string(i))
                : std::string();
        return fail("results diverge from traditional plan",
                    Status::Internal("fingerprints differ" + note));
      }
      report.dataflow_checks += verifier.checks();
      // Keep the traditional plan and query alive past this iteration: a
      // later config's divergence re-proves this exact plan pair on the
      // small scope to produce a minimized counterexample. Moved last —
      // `verifier` holds pointers into the query.
      if (i == 0) reference_opt.emplace(std::move(*optimized));
    }
    if (matview_mode && !view_ddls.empty() && reference_opt.has_value()) {
      AGGVIEW_RETURN_NOT_OK(MatViewDifferential(
          &catalog, tables, sql, view_ddls, reference, *reference_opt,
          seed_note, &rng, &report));
    }
    ++report.queries_run;
  }
  return report;
}

}  // namespace aggview
