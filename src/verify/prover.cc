#include "verify/prover.h"

#include <cstdlib>
#include <fstream>
#include <utility>

#include "sql/binder.h"

namespace aggview {

namespace {

std::string SanitizeFileName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(keep ? c : '_');
  }
  return out;
}

std::string SqlType(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
  }
  return "BIGINT";
}

/// Fingerprint on success, "ERROR: <status>" on failure.
std::string Outcome(const Result<QueryResult>& r) {
  if (r.ok()) return r.value().Fingerprint();
  return "ERROR: " + r.status().ToString();
}

}  // namespace

DataSwapGuard::DataSwapGuard(Catalog* catalog, const SchemaSkeleton& skeleton)
    : catalog_(catalog), skeleton_(&skeleton) {
  saved_.reserve(skeleton.tables.size());
  for (const TableSkeleton& ts : skeleton.tables) {
    saved_.push_back(catalog_->mutable_table(ts.table).data);
  }
}

DataSwapGuard::~DataSwapGuard() {
  for (size_t i = 0; i < skeleton_->tables.size(); ++i) {
    catalog_->mutable_table(skeleton_->tables[i].table).data = saved_[i];
  }
}

void DataSwapGuard::Install(const BoundedDatabase& db) {
  for (size_t i = 0; i < skeleton_->tables.size(); ++i) {
    catalog_->mutable_table(skeleton_->tables[i].table).data = db.tables[i];
  }
}

std::string RenderCounterexampleRepro(const SchemaSkeleton& skeleton,
                                      const BoundedDatabase& db,
                                      const std::string& description,
                                      const std::string& pre_text,
                                      const std::string& post_text,
                                      const std::string& pre_outcome,
                                      const std::string& post_outcome) {
  std::string out;
  out += "-- Counterexample: " + description + "\n";
  out += "-- Total rows: " + std::to_string(db.total_rows()) + "\n\n";
  for (size_t t = 0; t < skeleton.tables.size(); ++t) {
    const TableSkeleton& ts = skeleton.tables[t];
    out += "CREATE TABLE " + ts.name + " (";
    for (int c = 0; c < ts.schema.num_columns(); ++c) {
      if (c > 0) out += ", ";
      out += ts.schema.column(c).name + " " + SqlType(ts.schema.column(c).type);
      if (c == ts.key_column) out += " PRIMARY KEY";
    }
    out += ");\n";
    const Table& table = *db.tables[t];
    for (int64_t r = 0; r < table.row_count(); ++r) {
      out += "INSERT INTO " + ts.name + " VALUES (";
      for (int c = 0; c < table.schema().num_columns(); ++c) {
        if (c > 0) out += ", ";
        const Value& cell = table.at(r, c);
        out += cell.is_null() ? "NULL" : cell.ToString();
      }
      out += ");\n";
    }
    out += "\n";
  }
  out += "-- Pre plan:\n" + pre_text;
  if (out.back() != '\n') out += "\n";
  out += "\n-- Post plan:\n" + post_text;
  if (out.back() != '\n') out += "\n";
  out += "\n-- Pre outcome:\n" + pre_outcome;
  if (out.back() != '\n') out += "\n";
  out += "\n-- Post outcome:\n" + post_outcome;
  if (out.back() != '\n') out += "\n";
  return out;
}

Result<ProofResult> ProveEquivalence(Catalog* catalog,
                                     const SchemaSkeleton& skeleton,
                                     const ExecutionSpec& pre,
                                     const ExecutionSpec& post,
                                     const ProverOptions& options) {
  if (catalog == nullptr || pre.query == nullptr || post.query == nullptr ||
      !pre.plan || !post.plan) {
    return Status::InvalidArgument("prover: null catalog, query, or plan");
  }

  DataSwapGuard guard(catalog, skeleton);

  // Refutation check for one installed database.
  struct Outcomes {
    bool refuted = false;
    bool both_failed = false;
    std::string pre_outcome;
    std::string post_outcome;
  };
  auto check = [&](const BoundedDatabase& db) -> Result<Outcomes> {
    guard.Install(db);
    if (options.post_install) {
      AGGVIEW_RETURN_NOT_OK(options.post_install(catalog));
    }
    Result<QueryResult> pre_r = ExecutePlan(pre.plan, *pre.query, pre.ctx);
    Result<QueryResult> post_r = ExecutePlan(post.plan, *post.query, post.ctx);
    Outcomes o;
    o.pre_outcome = Outcome(pre_r);
    o.post_outcome = Outcome(post_r);
    if (pre_r.ok() && post_r.ok()) {
      o.refuted = o.pre_outcome != o.post_outcome;
    } else if (pre_r.ok() != post_r.ok()) {
      o.refuted = true;  // one side rejects a database the other accepts
    } else {
      o.both_failed = true;
    }
    return o;
  };

  ProofResult result;
  BoundedDatabase first_refuting;
  AGGVIEW_ASSIGN_OR_RETURN(
      result.databases_checked,
      ForEachBoundedDatabase(
          skeleton, options.bounds,
          [&](const BoundedDatabase& db) -> Result<bool> {
            AGGVIEW_ASSIGN_OR_RETURN(Outcomes o, check(db));
            if (o.both_failed) ++result.agreeing_failures;
            if (!o.refuted) return true;
            first_refuting = CloneDatabase(skeleton, db);
            return false;  // stop: counterexample found
          }));

  if (first_refuting.tables.empty()) {
    result.proved = true;
    return result;
  }

  Counterexample cex;
  cex.db = std::move(first_refuting);
  if (options.shrink) {
    AGGVIEW_ASSIGN_OR_RETURN(
        cex.db, ShrinkCounterexample(
                    skeleton, cex.db,
                    [&](const BoundedDatabase& db) -> Result<bool> {
                      AGGVIEW_ASSIGN_OR_RETURN(Outcomes o, check(db));
                      return o.refuted;
                    },
                    &cex.shrink_stats));
  }
  AGGVIEW_ASSIGN_OR_RETURN(Outcomes final_outcomes, check(cex.db));
  cex.pre_outcome = final_outcomes.pre_outcome;
  cex.post_outcome = final_outcomes.post_outcome;

  std::string pre_label = pre.label.empty() ? "pre" : pre.label;
  std::string post_label = post.label.empty() ? "post" : post.label;
  cex.repro = RenderCounterexampleRepro(
      skeleton, cex.db, options.name + " (" + pre_label + " vs " + post_label + ")",
      PlanToString(pre.plan, *pre.query), PlanToString(post.plan, *post.query),
      cex.pre_outcome, cex.post_outcome);

  std::string dir = options.repro_dir;
  if (dir.empty()) {
    const char* env = std::getenv("AGGVIEW_PROVER_REPRO_DIR");
    if (env != nullptr) dir = env;
  }
  if (!dir.empty()) {
    std::string path =
        dir + "/counterexample_" + SanitizeFileName(options.name) + ".sql";
    std::ofstream file(path);
    if (file) {
      file << cex.repro;
      cex.repro_path = path;
    }
  }

  result.counterexample = std::move(cex);
  return result;
}

Result<SqlProof> ProveSqlTransformation(Catalog* catalog,
                                        const std::string& sql,
                                        const OptimizerOptions& pre_options,
                                        const OptimizerOptions& post_options,
                                        const ProverOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("prover: null catalog");
  }
  AGGVIEW_ASSIGN_OR_RETURN(Query bound, ParseAndBind(*catalog, sql));

  SqlProof proof;
  AGGVIEW_ASSIGN_OR_RETURN(proof.pre,
                           OptimizeQueryWithAggViews(bound, pre_options));
  AGGVIEW_ASSIGN_OR_RETURN(proof.post,
                           OptimizeQueryWithAggViews(bound, post_options));

  // The skeleton unions both rewritten queries' referenced columns with the
  // columns the transformation certificates claim (the certificates expose
  // the skeleton of what they rely on; empty outside paranoid mode).
  std::vector<SkeletonSource> sources;
  sources.push_back(
      SkeletonSource{&proof.pre.query, proof.pre.audit.ReferencedColumns()});
  sources.push_back(
      SkeletonSource{&proof.post.query, proof.post.audit.ReferencedColumns()});
  AGGVIEW_ASSIGN_OR_RETURN(proof.skeleton, ExtractSkeleton(*catalog, sources));

  ExecutionSpec pre_spec;
  pre_spec.query = &proof.pre.query;
  pre_spec.plan = proof.pre.plan;
  pre_spec.label = "pre: " + proof.pre.description;
  ExecutionSpec post_spec;
  post_spec.query = &proof.post.query;
  post_spec.plan = proof.post.plan;
  post_spec.label = "post: " + proof.post.description;

  AGGVIEW_ASSIGN_OR_RETURN(
      proof.result,
      ProveEquivalence(catalog, proof.skeleton, pre_spec, post_spec, options));
  return proof;
}

}  // namespace aggview
