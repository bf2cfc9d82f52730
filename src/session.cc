#include "session.h"

#include "exec/thread_pool.h"
#include "obs/explain.h"
#include "obs/runtime_stats.h"
#include "optimizer/traditional.h"
#include "sql/binder.h"
#include "view/matview.h"
#include "view/rewriter.h"

namespace aggview {

SessionOptions SessionOptions::Default() {
  SessionOptions options;
  ExecDefaults env = ExecDefaults::FromEnv();
  options.threads = env.threads;
  options.batch_size = env.batch_size;
  options.backend = env.backend;
  options.bytecode_verify = env.bytecode_verify;
  return options;
}

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      self_(std::make_shared<Session*>(this)) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.batch_size < 1) options_.batch_size = 1;
}

Session::~Session() { *self_ = nullptr; }

ThreadPool* Session::pool() {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(options_.threads);
  return pool_.get();
}

ExecContext Session::MakeContext() {
  ExecContext ctx;
  ctx.batch_size = options_.batch_size;
  ctx.threads = options_.threads;
  ctx.backend = options_.backend;
  ctx.bytecode_verify = options_.bytecode_verify;
  if (options_.threads > 1) ctx.pool = pool();
  return ctx;
}

Result<OptimizedQuery> PrepareStatement(const Catalog& catalog,
                                        const std::string& text,
                                        bool use_materialized_views,
                                        bool use_traditional,
                                        const OptimizerOptions& optimizer) {
  AGGVIEW_ASSIGN_OR_RETURN(Query query, ParseAndBind(catalog, text));
  std::vector<ViewRewriteCertificate> view_certs;
  int view_rewrites = 0;
  if (use_materialized_views && catalog.num_views() > 0) {
    AGGVIEW_ASSIGN_OR_RETURN(
        view_rewrites,
        RewriteWithMaterializedViews(catalog, &query, &view_certs));
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      OptimizedQuery optimized,
      use_traditional ? OptimizeTraditional(query)
                      : OptimizeQueryWithAggViews(query, optimizer));
  if (view_rewrites > 0) {
    // The optimizers emit no view-rewrite certificates of their own.
    optimized.audit.view_rewrites = std::move(view_certs);
    optimized.description =
        "answered " + std::to_string(view_rewrites) +
        " block(s) from materialized views; " + optimized.description;
  }
  return optimized;
}

Result<PreparedQuery> Session::Sql(const std::string& text) {
  AGGVIEW_ASSIGN_OR_RETURN(
      OptimizedQuery optimized,
      PrepareStatement(catalog_, text, options_.use_materialized_views,
                       options_.use_traditional, options_.optimizer));
  return PreparedQuery(self_, std::move(optimized), options_.backend);
}

Result<std::string> Session::ExecuteDdl(const std::string& text) {
  return ExecuteMatViewStatement(&catalog_, text, MakeContext());
}

Result<Session*> PreparedQuery::session() const {
  if (session_ == nullptr) {
    return Status::InvalidArgument(
        "PreparedQuery is moved-from; execute the query it was moved into");
  }
  if (*session_ == nullptr) {
    return Status::InvalidArgument(
        "PreparedQuery outlived its Session: the Session owning the catalog "
        "data and worker pool has been destroyed");
  }
  return *session_;
}

Result<QueryResult> PreparedQuery::Execute() {
  AGGVIEW_ASSIGN_OR_RETURN(Session * session, this->session());
  IoAccountant io;
  AGGVIEW_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecutePlan(optimized_.plan, optimized_.query,
                  session->MakeContext().WithIo(&io).WithAudit(
                      &optimized_.audit)));
  last_io_pages_ = io.total();
  return result;
}

std::string PreparedQuery::Explain() const {
  std::string out = optimized_.description;
  if (!out.empty() && out.back() != '\n') out += "\n";
  out += PlanToString(optimized_.plan, optimized_.query);
  return out;
}

Result<std::string> PreparedQuery::ExplainAnalyze(bool verbose) {
  AGGVIEW_ASSIGN_OR_RETURN(Session * session, this->session());
  IoAccountant io;
  RuntimeStatsCollector stats;
  AGGVIEW_RETURN_NOT_OK(ExecutePlan(optimized_.plan, optimized_.query,
                                    session->MakeContext()
                                        .WithIo(&io)
                                        .WithStats(&stats)
                                        .WithAudit(&optimized_.audit))
                            .status());
  last_io_pages_ = io.total();
  return aggview::ExplainAnalyze(optimized_.plan, optimized_.query, stats,
                                 verbose ? &optimized_.audit : nullptr);
}

}  // namespace aggview
