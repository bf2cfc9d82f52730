#ifndef AGGVIEW_SESSION_H_
#define AGGVIEW_SESSION_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "optimizer/aggview_optimizer.h"

namespace aggview {

class Session;
class ThreadPool;

/// Session-wide knobs; each PreparedQuery inherits them at Sql() time.
struct SessionOptions {
  /// Intra-query parallelism for every query this session executes. The
  /// session owns one worker pool sized to this, shared across queries.
  int threads = 1;
  /// Batch capacity of every operator tree the session runs.
  int batch_size = kDefaultBatchSize;
  /// Execution backend for every query this session runs: the Volcano batch
  /// interpreter, or the compiling backend (bytecode predicates + fused
  /// pipeline kernels, falling back per-operator where uncovered).
  ExecBackend backend = ExecBackend::kInterpret;
  /// Optimize with the traditional two-phase optimizer instead of the
  /// paper's aggregate-view optimizer (for comparisons).
  bool use_traditional = false;
  /// Answer queries from fresh materialized views when one matches
  /// (view/rewriter.h), before either optimizer runs. Off disables the
  /// rewriter entirely; view maintenance and REFRESH are unaffected.
  bool use_materialized_views = true;
  /// How hard lowering statically checks each compiled bytecode program
  /// before it may execute (exec/compile/verifier.h); only the compiled
  /// backend runs bytecode. AGGVIEW_VERIFY_BYTECODE overrides the default.
  BytecodeVerifyMode bytecode_verify = BytecodeVerifyMode::kOn;
  /// Options of the aggregate-view optimizer (ignored by use_traditional).
  OptimizerOptions optimizer;

  /// Serial, default batch size, interpreting backend — unless the
  /// environment overrides them (AGGVIEW_TEST_THREADS /
  /// AGGVIEW_TEST_BATCH_SIZE / AGGVIEW_TEST_BACKEND /
  /// AGGVIEW_VERIFY_BYTECODE via ExecDefaults::FromEnv(), the same knobs
  /// ExecContext::Default() reads).
  static SessionOptions Default();
};

/// The one prepare path (Session::Sql, Server::Prepare): parse → bind →
/// materialized-view rewrite (certificates land in the audit) → optimize,
/// traditionally or with the aggregate-view optimizer under `optimizer`.
Result<OptimizedQuery> PrepareStatement(const Catalog& catalog,
                                        const std::string& text,
                                        bool use_materialized_views,
                                        bool use_traditional,
                                        const OptimizerOptions& optimizer);

/// A parsed, bound and optimized statement, ready to run. Produced by
/// Session::Sql; holds the rewritten query and the winning plan, so the
/// (comparatively expensive) optimization runs once however often the
/// statement executes. It executes against the session's catalog data and
/// worker pool, and guards that lifetime explicitly: Execute() on a query
/// whose Session has been destroyed, or on a moved-from query, returns a
/// clear error Status instead of dereferencing a dangling pointer.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  /// Runs the plan on the session's pool/threads and materializes the
  /// result. Page charges of the run are available from last_io_pages()
  /// afterwards.
  Result<QueryResult> Execute();

  /// The optimizer's one-line rationale plus the physical plan tree.
  std::string Explain() const;

  /// Runs the plan instrumented and renders the plan tree annotated with
  /// actual cardinalities, timings, IO and worker counts. Under the compiled
  /// backend, interpreted operators additionally show `fallback=<reason>`.
  /// `verbose` appends one section per compiled bytecode program: source
  /// predicate, verification verdict, and the full disassembly.
  Result<std::string> ExplainAnalyze(bool verbose = false);

  /// Certificates of the optimizer's transformations, the view rewriter's
  /// matches, and (after an Execute / ExplainAnalyze under the compiled
  /// backend) one CompilationCertificate per compiled bytecode program of
  /// the most recent lowering.
  const TransformationAudit& audit() const { return optimized_.audit; }

  const PlanPtr& plan() const { return optimized_.plan; }
  const Query& query() const { return optimized_.query; }
  const std::string& description() const { return optimized_.description; }
  /// Every W-assignment alternative the optimizer evaluated.
  const std::vector<PlanAlternative>& alternatives() const {
    return optimized_.alternatives;
  }
  /// Pages (reads + writes) charged by the most recent Execute /
  /// ExplainAnalyze, -1 before the first run.
  int64_t last_io_pages() const { return last_io_pages_; }
  /// The execution backend this query runs under (inherited from the
  /// session's options at Sql() time).
  ExecBackend backend() const { return backend_; }

 private:
  friend class Session;
  PreparedQuery(std::shared_ptr<Session*> session, OptimizedQuery optimized,
                ExecBackend backend)
      : session_(std::move(session)),
        optimized_(std::move(optimized)),
        backend_(backend) {}

  /// Resolves the owning Session, or an error when this query was moved
  /// from or the Session has been destroyed.
  Result<Session*> session() const;

  /// Generation token shared with the Session: the Session's destructor
  /// nulls the pointee, a move nulls the shared_ptr itself, and both states
  /// surface as error Statuses from session().
  std::shared_ptr<Session*> session_;
  OptimizedQuery optimized_;
  ExecBackend backend_ = ExecBackend::kInterpret;
  int64_t last_io_pages_ = -1;
};

/// The library's front door: one object owning the catalog (schemas + data),
/// the optimizer configuration, and the worker pool for parallel execution.
///
///   Session session(SessionOptions{.threads = 8});
///   CreateEmpDeptSchema(&session.catalog());
///   GenerateEmpDeptData(&session.catalog(), ...);
///   AGGVIEW_ASSIGN_OR_RETURN(PreparedQuery q, session.Sql("SELECT ..."));
///   AGGVIEW_ASSIGN_OR_RETURN(QueryResult result, q.Execute());
///
/// Sql() runs parse → bind → optimize; the returned PreparedQuery executes
/// any number of times. A Session is single-threaded at its surface (one
/// statement at a time) — the parallelism is *inside* an Execute call.
class Session {
 public:
  explicit Session(SessionOptions options = SessionOptions::Default());
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The session's schema + data; populate it before Sql().
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  const SessionOptions& options() const { return options_; }

  /// Switches which optimizer subsequent Sql() calls use (already-prepared
  /// queries are unaffected).
  void set_use_traditional(bool on) { options_.use_traditional = on; }

  /// Prepares one SELECT statement with this session's options
  /// (PrepareStatement): answered from fresh materialized views if enabled.
  Result<PreparedQuery> Sql(const std::string& text);

  /// Runs one materialized-view DDL statement (`CREATE MATERIALIZED VIEW
  /// name [(cols)] AS select` or `REFRESH MATERIALIZED VIEW name`) against
  /// this session's catalog, returning a one-line confirmation.
  Result<std::string> ExecuteDdl(const std::string& text);

  /// The execution context queries of this session run under (threads,
  /// batch size, shared pool), without IO or stats sinks installed.
  ExecContext MakeContext();

 private:
  /// The shared worker pool, created on first parallel use.
  ThreadPool* pool();

  SessionOptions options_;
  Catalog catalog_;
  std::unique_ptr<ThreadPool> pool_;
  /// Lifetime token handed to every PreparedQuery; ~Session nulls the
  /// pointee so outstanding queries fail their Execute with a clear error
  /// instead of a use-after-free.
  std::shared_ptr<Session*> self_;
};

}  // namespace aggview

#endif  // AGGVIEW_SESSION_H_
