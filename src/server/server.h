#ifndef AGGVIEW_SERVER_SERVER_H_
#define AGGVIEW_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "optimizer/aggview_optimizer.h"
#include "server/plan_cache.h"
#include "view/maintenance.h"

namespace aggview {

class Server;
class ServerSession;
class ThreadPool;

/// Server-wide configuration, fixed at construction (the plan-cache key
/// depends on it being immutable while serving).
struct ServerOptions {
  /// Size of the shared worker pool every query's morsel-parallel regions
  /// run on (intra-query parallelism; 1 = serial execution).
  int threads = 1;
  /// Batch capacity of every operator tree the server runs.
  int batch_size = kDefaultBatchSize;
  /// Unread; see ExecBackend (exec/exec_context.h).
  ExecBackend backend = ExecBackend::kInterpret;
  BytecodeVerifyMode bytecode_verify = BytecodeVerifyMode::kOn;
  /// Optimize with the traditional two-phase optimizer instead of the
  /// paper's aggregate-view optimizer (for comparisons). The starting value
  /// of every connection; ServerSession::set_use_traditional flips it for
  /// one connection.
  bool use_traditional = false;
  /// Options of the aggregate-view optimizer (ignored by use_traditional).
  OptimizerOptions optimizer;
  /// Answer queries from fresh materialized views when one matches
  /// (view/rewriter.h), before either optimizer runs. Part of the plan-cache
  /// configuration fingerprint.
  bool use_materialized_views = true;
  /// Maximum number of plans the shared plan cache holds (LRU beyond that);
  /// 0 disables plan caching entirely.
  int64_t plan_cache_capacity = 256;
  /// Admission control: at most this many statements execute at once;
  /// excess Execute() calls queue FIFO (no starvation). 0 = unlimited —
  /// every statement runs immediately, and concurrent statements' parallel
  /// regions share the thread pool's workers in arrival order, each driver
  /// also running its own region's tasks. This is the only statement-level
  /// fairness mechanism.
  int max_concurrent_queries = 0;

  /// Serial and default batch size — unless the environment overrides them
  /// (AGGVIEW_TEST_THREADS / AGGVIEW_TEST_BATCH_SIZE via
  /// ExecDefaults::FromEnv(), the same knobs ExecContext::Default() reads).
  static ServerOptions Default();
};

/// The one prepare path behind ServerSession::Sql (and the fuzzer's
/// view-answering leg): parse → bind → materialized-view rewrite
/// (certificates land in the audit) → optimize, traditionally or with the
/// aggregate-view optimizer under `optimizer`.
Result<OptimizedQuery> PrepareStatement(const Catalog& catalog,
                                        const std::string& text,
                                        bool use_materialized_views,
                                        bool use_traditional,
                                        const OptimizerOptions& optimizer);

/// FIFO admission controller: a counting semaphore whose waiters are served
/// strictly in arrival order, so a steady stream of cheap queries can never
/// starve an expensive one out of its execution slot.
class AdmissionController {
 public:
  /// At most `limit` concurrent holders; `limit` <= 0 means unlimited.
  explicit AdmissionController(int limit) : limit_(limit) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Blocks until admitted. Every Enter must be paired with one Exit.
  void Enter();
  void Exit();

  /// Largest number of concurrent holders observed (== limit under load;
  /// asserted by the admission tests).
  int peak_running() const;
  /// Total number of admissions actually granted so far (Enter() calls that
  /// have returned; callers still blocked waiting are not counted).
  int64_t total_admitted() const;

 private:
  const int limit_;
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  /// Next ticket to hand out; tickets are admitted in ticket order as
  /// soon as `ticket < finished_ + limit_` (a FIFO counting semaphore).
  int64_t next_ticket_ AGGVIEW_GUARDED_BY(mu_) = 0;
  int64_t finished_ AGGVIEW_GUARDED_BY(mu_) = 0;
  /// Enter() calls past the wait loop, i.e. admissions granted — distinct
  /// from next_ticket_, which also counts callers still blocked.
  int64_t admitted_ AGGVIEW_GUARDED_BY(mu_) = 0;
  int running_ AGGVIEW_GUARDED_BY(mu_) = 0;
  int peak_running_ AGGVIEW_GUARDED_BY(mu_) = 0;
};

/// A statement prepared through a Server: the (possibly cache-shared)
/// optimized plan plus everything needed to run it on the server's pool
/// under admission control. Obtained from ServerSession::Sql; any number of
/// ServerQuery objects — across any number of client threads — may hold and
/// execute the same cached plan concurrently. The plan is never copied or
/// mutated: what one execution learns (its IO pages) lives in the handle.
///
/// Lifetime is guarded explicitly: executing a query whose Server has been
/// destroyed, or a moved-from query, returns a clear error Status instead of
/// dereferencing a dangling pointer. A move transfers the right to execute
/// but leaves the source with shared read access to the immutable plan, so
/// the introspection accessors — Explain(), plan(), query(), description(),
/// alternatives() — stay valid on a moved-from query too.
class ServerQuery {
 public:
  ServerQuery(ServerQuery&& other) noexcept
      : server_(std::move(other.server_)),
        // Copied, not moved: the plan is immutable and shared; keeping it
        // makes every accessor on the moved-from query safe, while the
        // nulled server_ token still refuses Execute/ExplainAnalyze.
        optimized_(other.optimized_),
        cache_hit_(other.cache_hit_),
        last_io_pages_(other.last_io_pages_) {}
  ServerQuery& operator=(ServerQuery&& other) noexcept {
    server_ = std::move(other.server_);
    optimized_ = other.optimized_;
    cache_hit_ = other.cache_hit_;
    last_io_pages_ = other.last_io_pages_;
    return *this;
  }

  /// Runs the plan on the server's shared pool, gated by the server's
  /// admission controller, and materializes the result.
  Result<QueryResult> Execute();

  /// The optimizer's one-line rationale plus the physical plan tree.
  std::string Explain() const;

  /// Runs the plan instrumented and renders the plan tree annotated with
  /// actual cardinalities, timings, IO and worker counts.
  Result<std::string> ExplainAnalyze();

  /// True when Sql() answered this statement from the plan cache (the
  /// parse/bind/optimize pipeline was skipped entirely).
  bool cache_hit() const { return cache_hit_; }

  /// True when the plan answers at least one block from a materialized
  /// view's backing table (its cache entry then also carries that view's
  /// epoch as a dependency stamp).
  bool view_backed() const { return !optimized_->audit.view_rewrites.empty(); }

  const PlanPtr& plan() const { return optimized_->plan; }
  const Query& query() const { return optimized_->query; }
  const std::string& description() const { return optimized_->description; }
  /// Every W-assignment alternative the optimizer evaluated.
  const std::vector<PlanAlternative>& alternatives() const {
    return optimized_->alternatives;
  }
  /// Pages (reads + writes) charged by the most recent Execute /
  /// ExplainAnalyze, -1 before the first run.
  int64_t last_io_pages() const { return last_io_pages_; }

 private:
  friend class ServerSession;
  ServerQuery(std::shared_ptr<Server*> server,
              std::shared_ptr<const OptimizedQuery> optimized, bool cache_hit)
      : server_(std::move(server)),
        optimized_(std::move(optimized)),
        cache_hit_(cache_hit) {}

  /// Resolves the owning Server, or an error when this query was moved from
  /// or the Server has been destroyed.
  Result<Server*> server() const;

  std::shared_ptr<Server*> server_;
  std::shared_ptr<const OptimizedQuery> optimized_;
  bool cache_hit_ = false;
  int64_t last_io_pages_ = -1;
};

/// A client connection to a Server: a cheap value handle safe to move to
/// any thread. Each concurrent client thread should hold its own session
/// (sessions themselves are not synchronized); all sessions share the
/// server's catalog, plan cache, worker pool and admission controller.
class ServerSession {
 public:
  ServerSession(ServerSession&&) = default;
  ServerSession& operator=(ServerSession&&) = default;

  /// Parses, binds and optimizes one statement — or skips all three when
  /// the server's plan cache already holds a plan for the normalized text
  /// whose every dependency (table and view epochs) is unchanged under the
  /// current optimizer configuration.
  Result<ServerQuery> Sql(const std::string& text);

  /// Runs one materialized-view DDL statement (`CREATE MATERIALIZED VIEW
  /// name [(cols)] AS select` or `REFRESH MATERIALIZED VIEW name`) under the
  /// server's exclusive catalog lock, returning a one-line confirmation.
  /// Safe to call while other sessions execute queries: they drain first.
  Result<std::string> ExecuteDdl(const std::string& text);

  /// Applies a base-table delta (view/maintenance.h) under the server's
  /// exclusive catalog lock, incrementally maintaining every fresh
  /// single-relation view and marking the rest stale. Per-table epoch bumps
  /// invalidate exactly the cached plans that read the mutated objects.
  Status ApplyDelta(const TableDelta& delta, MaintenanceReport* report =
                                                 nullptr);

  /// Switches which optimizer this connection's subsequent Sql() calls use
  /// (starts at ServerOptions::use_traditional; already-prepared queries are
  /// unaffected). The choice is part of the plan-cache key, so the two
  /// optimizers' plans for one statement never shadow each other.
  void set_use_traditional(bool on) { use_traditional_ = on; }
  bool use_traditional() const { return use_traditional_; }

  /// This connection's id (1-based, in Connect() order).
  int id() const { return id_; }

 private:
  friend class Server;
  ServerSession(std::shared_ptr<Server*> server, int id, bool use_traditional)
      : server_(std::move(server)),
        id_(id),
        use_traditional_(use_traditional) {}

  std::shared_ptr<Server*> server_;
  int id_ = 0;
  bool use_traditional_ = false;
};

/// The multi-query serving layer: one object owning the catalog, the plan
/// cache, the shared worker pool and the admission controller, serving any
/// number of concurrently connected client sessions.
///
///   Server server(ServerOptions{.threads = 8, .max_concurrent_queries = 4});
///   ... populate server.catalog() (tables + stats + data), then serve ...
///   ServerSession conn = server.Connect();             // one per client
///   AGGVIEW_ASSIGN_OR_RETURN(ServerQuery q, conn.Sql("SELECT ..."));
///   AGGVIEW_ASSIGN_OR_RETURN(QueryResult result, q.Execute());
///
/// The same object serves a single embedded caller (the examples, the shell
/// and most tests): populate the catalog, Connect() once, and issue
/// statements on that one connection.
///
/// Concurrency contract: Connect() and every ServerSession/ServerQuery
/// operation are safe from any thread once the catalog is populated.
/// Initial catalog population (loading data, refreshing stats) must be
/// quiesced relative to serving. Once serving, the structured mutation
/// paths — ExecuteDdl (view CREATE/REFRESH) and ApplyDelta (base-table
/// deltas with view maintenance) — take the server's exclusive catalog
/// lock, while Prepare and Execute hold it shared, so DDL and deltas
/// interleave safely with running queries. Epoch bookkeeping is
/// per-object: a mutation invalidates exactly the cached plans whose
/// dependency stamps (tables scanned, views answered from) it touched;
/// unrelated plans survive and count toward `avoided_invalidations`.
class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions::Default());
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The server's schema + data; populate before serving. Mutable access
  /// bumps the catalog's stats epoch (see Catalog::mutable_table).
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  const ServerOptions& options() const { return options_; }

  /// The catalog's current stats epoch (cache-invalidation stamp).
  int64_t stats_epoch() const { return catalog_.stats_epoch(); }

  /// Opens a client session. Thread-safe.
  ServerSession Connect();

  /// Materialized-view DDL and base-table deltas, exposed on the server
  /// itself for administrative callers; ServerSession forwards here. Both
  /// take the exclusive catalog lock.
  Result<std::string> ExecuteDdl(const std::string& text);
  Status ApplyDelta(const TableDelta& delta,
                    MaintenanceReport* report = nullptr);

  /// Plan-cache counters (hits, misses, evictions, invalidations).
  PlanCacheStats cache_stats() const { return cache_.stats(); }

  /// Admission counters (peak concurrency, total admissions).
  int admission_peak_running() const { return admission_.peak_running(); }
  int64_t admission_total() const { return admission_.total_admitted(); }

 private:
  friend class ServerSession;
  friend class ServerQuery;

  /// Cache-aware prepare: normalized text + config fingerprint key the
  /// cache; entries carry per-dependency epoch stamps checked on every
  /// lookup. A miss pays PrepareStatement (parse → bind → view rewrite →
  /// optimize) and publishes the result for every other session. Takes the
  /// catalog lock shared.
  Result<std::shared_ptr<const OptimizedQuery>> Prepare(
      const std::string& text, bool use_traditional, bool* cache_hit);

  /// The dependency stamps of a freshly optimized plan: one "t:<id>" per
  /// scanned table (base tables and view backings alike), one "v:<name>"
  /// per view the rewriter answered from. Caller holds the catalog lock.
  std::vector<PlanDependency> CollectDependencies(
      const OptimizedQuery& optimized) const;

  /// The execution context queries of this server run under (threads, batch
  /// size, shared pool), without IO or stats sinks installed.
  ExecContext MakeContext();

  ServerOptions options_;
  /// Readers-writer lock between serving (Prepare/Execute, shared) and the
  /// structured catalog mutations (ExecuteDdl/ApplyDelta, exclusive).
  /// Acquired after admission so a queued writer never holds an execution
  /// slot hostage.
  mutable std::shared_mutex catalog_mu_;
  /// Cache-key suffixes encoding every optimizer option that changes plan
  /// choice, indexed by the connection's use_traditional; computed once
  /// (options are immutable after construction).
  std::string config_fingerprints_[2];
  Catalog catalog_;
  PlanCache cache_;
  AdmissionController admission_;
  /// Created eagerly when threads > 1 so serving never races a lazy init.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int> next_session_id_{0};
  /// Lifetime token handed to sessions and queries; ~Server nulls the
  /// pointee so outstanding handles fail with a clear error instead of a
  /// use-after-free.
  std::shared_ptr<Server*> self_;
};

}  // namespace aggview

#endif  // AGGVIEW_SERVER_SERVER_H_
