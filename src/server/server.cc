#include "server/server.h"

#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "obs/explain.h"
#include "obs/runtime_stats.h"
#include "optimizer/traditional.h"
#include "sql/binder.h"
#include "storage/io_accountant.h"
#include "view/matview.h"
#include "view/rewriter.h"

namespace aggview {

namespace {

/// RAII admission pass around one statement execution.
class AdmissionPass {
 public:
  explicit AdmissionPass(AdmissionController* admission)
      : admission_(admission) {
    admission_->Enter();
  }
  ~AdmissionPass() { admission_->Exit(); }

  AdmissionPass(const AdmissionPass&) = delete;
  AdmissionPass& operator=(const AdmissionPass&) = delete;

 private:
  AdmissionController* admission_;
};

/// Encodes every option that changes which plan the optimizer picks.
/// Thread/batch knobs are deliberately absent: they change throughput, never
/// the plan.
/// `use_traditional` is the connection's choice, which may differ from
/// options.use_traditional.
std::string ConfigFingerprint(const ServerOptions& options,
                              bool use_traditional) {
  const OptimizerOptions& opt = options.optimizer;
  return StrFormat(
      "trad=%d;mv=%d;prop=%d;pull=%d;shared=%d;shrink=%d;inctrad=%d;"
      "greedy=%d;inv=%d;coal=%d",
      use_traditional ? 1 : 0,
      options.use_materialized_views ? 1 : 0,
      opt.propagate_predicates ? 1 : 0,
      opt.max_pullup, opt.require_shared_predicate ? 1 : 0,
      opt.shrink_views ? 1 : 0,
      opt.include_traditional_alternative ? 1 : 0,
      opt.enumerator.greedy_aggregation ? 1 : 0,
      opt.enumerator.enable_invariant ? 1 : 0,
      opt.enumerator.enable_coalescing ? 1 : 0);
}

}  // namespace

ServerOptions ServerOptions::Default() {
  ServerOptions options;
  ExecDefaults env = ExecDefaults::FromEnv();
  options.threads = env.threads;
  options.batch_size = env.batch_size;
  return options;
}

void AdmissionController::Enter() {
  MutexLock lock(&mu_);
  int64_t ticket = next_ticket_++;
  if (limit_ > 0) {
    // FIFO: ticket k runs once fewer than `limit_` of the tickets before it
    // are still in flight — i.e. strictly in arrival order.
    while (ticket >= finished_ + limit_) cv_.wait(lock);
  }
  ++admitted_;
  ++running_;
  if (running_ > peak_running_) peak_running_ = running_;
}

void AdmissionController::Exit() {
  {
    MutexLock lock(&mu_);
    --running_;
    ++finished_;
  }
  cv_.notify_all();
}

int AdmissionController::peak_running() const {
  MutexLock lock(&mu_);
  return peak_running_;
}

int64_t AdmissionController::total_admitted() const {
  MutexLock lock(&mu_);
  return admitted_;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      config_fingerprints_{ConfigFingerprint(options_, false),
                           ConfigFingerprint(options_, true)},
      cache_(options_.plan_cache_capacity),
      admission_(options_.max_concurrent_queries),
      self_(std::make_shared<Server*>(this)) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.batch_size < 1) options_.batch_size = 1;
  // Eager pool creation: a lazily-built pool would need its own lock once
  // several sessions race to the first parallel query.
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
}

Server::~Server() { *self_ = nullptr; }

ServerSession Server::Connect() {
  return ServerSession(
      self_, next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1,
      options_.use_traditional);
}

ExecContext Server::MakeContext() {
  ExecContext ctx;
  ctx.batch_size = options_.batch_size;
  ctx.threads = options_.threads;
  ctx.pool = pool_.get();
  return ctx;
}

std::vector<PlanDependency> Server::CollectDependencies(
    const OptimizedQuery& optimized) const {
  std::set<TableId> tables;
  for (int i = 0; i < optimized.query.num_range_vars(); ++i) {
    const RangeVar& rv = optimized.query.range_var(i);
    if (!rv.detached && rv.table >= 0) tables.insert(rv.table);
  }
  std::vector<PlanDependency> deps;
  deps.reserve(tables.size() + optimized.audit.view_rewrites.size());
  for (TableId t : tables) {
    deps.push_back({"t:" + std::to_string(t), catalog_.table_epoch(t)});
  }
  std::set<std::string> stamped_views;
  for (const ViewRewriteCertificate& cert : optimized.audit.view_rewrites) {
    const ViewDefinition* view = catalog_.FindView(cert.view_name);
    deps.push_back({"v:" + cert.view_name,
                    view != nullptr
                        ? view->epoch.load(std::memory_order_acquire)
                        : -1});
    stamped_views.insert(cert.view_name);
  }
  // Also stamp every view sharing a base table with the plan, answered-from
  // or not: a plan compiled while such a view was stale (or that the
  // rewriter declined) must be re-prepared once a REFRESH makes the view an
  // eligible answer source again — otherwise the cached base plan shadows
  // the view forever.
  for (const auto& view : catalog_.views()) {
    if (stamped_views.count(view->name) > 0) continue;
    bool relevant = false;
    for (TableId t : view->base_tables) relevant |= (tables.count(t) > 0);
    if (!relevant) continue;
    deps.push_back({"v:" + view->name,
                    view->epoch.load(std::memory_order_acquire)});
  }
  return deps;
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

Result<std::shared_ptr<const OptimizedQuery>> Server::Prepare(
    const std::string& text, bool use_traditional, bool* cache_hit) {
  *cache_hit = false;
  const std::string key = NormalizeSql(text) + '\x1f' +
                          config_fingerprints_[use_traditional ? 1 : 0];
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  // Read the epoch before optimizing: a concurrent mutation (blocked on the
  // exclusive lock until we finish) stamps the entry with the older epoch
  // and the next lookup invalidates it — never the reverse.
  const int64_t epoch = catalog_.stats_epoch();
  if (options_.plan_cache_capacity > 0) {
    DependencyResolver resolver = [this](const std::string& dep) -> int64_t {
      if (dep.size() > 2 && dep[1] == ':') {
        if (dep[0] == 't') {
          TableId id = static_cast<TableId>(std::atoll(dep.c_str() + 2));
          if (id < 0 || id >= catalog_.num_tables()) return -1;
          return catalog_.table_epoch(id);
        }
        if (dep[0] == 'v') {
          const ViewDefinition* view = catalog_.FindView(dep.substr(2));
          if (view == nullptr) return -1;
          return view->epoch.load(std::memory_order_acquire);
        }
      }
      return -1;
    };
    if (std::shared_ptr<const OptimizedQuery> hit =
            cache_.Lookup(key, epoch, resolver)) {
      *cache_hit = true;
      return hit;
    }
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      OptimizedQuery optimized,
      PrepareStatement(catalog_, text, options_.use_materialized_views,
                       use_traditional, options_.optimizer));
  std::vector<PlanDependency> deps = CollectDependencies(optimized);
  auto shared =
      std::make_shared<const OptimizedQuery>(std::move(optimized));
  if (options_.plan_cache_capacity > 0) {
    cache_.Insert(key, epoch, shared, std::move(deps));
  }
  return shared;
}

Result<std::string> Server::ExecuteDdl(const std::string& text) {
  std::unique_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  return ExecuteMatViewStatement(&catalog_, text, MakeContext());
}

Status Server::ApplyDelta(const TableDelta& delta, MaintenanceReport* report) {
  std::unique_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  return ApplyTableDelta(&catalog_, delta, report);
}

Result<ServerQuery> ServerSession::Sql(const std::string& text) {
  if (server_ == nullptr) {
    return Status::InvalidArgument(
        "ServerSession is moved-from; use the session it was moved into");
  }
  Server* server = *server_;
  if (server == nullptr) {
    return Status::InvalidArgument(
        "ServerSession outlived its Server: the Server owning the catalog "
        "and worker pool has been destroyed");
  }
  bool cache_hit = false;
  AGGVIEW_ASSIGN_OR_RETURN(std::shared_ptr<const OptimizedQuery> optimized,
                           server->Prepare(text, use_traditional_, &cache_hit));
  return ServerQuery(server_, std::move(optimized), cache_hit);
}

Result<std::string> ServerSession::ExecuteDdl(const std::string& text) {
  if (server_ == nullptr || *server_ == nullptr) {
    return Status::InvalidArgument(
        "ServerSession is moved-from or outlived its Server");
  }
  return (*server_)->ExecuteDdl(text);
}

Status ServerSession::ApplyDelta(const TableDelta& delta,
                                 MaintenanceReport* report) {
  if (server_ == nullptr || *server_ == nullptr) {
    return Status::InvalidArgument(
        "ServerSession is moved-from or outlived its Server");
  }
  return (*server_)->ApplyDelta(delta, report);
}

Result<Server*> ServerQuery::server() const {
  if (server_ == nullptr) {
    return Status::InvalidArgument(
        "ServerQuery is moved-from; execute the query it was moved into");
  }
  if (*server_ == nullptr) {
    return Status::InvalidArgument(
        "ServerQuery outlived its Server: the Server owning the catalog "
        "data and worker pool has been destroyed");
  }
  return *server_;
}

Result<QueryResult> ServerQuery::Execute() {
  AGGVIEW_ASSIGN_OR_RETURN(Server * server, this->server());
  AdmissionPass pass(&server->admission_);
  // Shared catalog lock after admission: a queued DDL/delta writer never
  // blocks behind a statement that is itself still waiting for a slot.
  std::shared_lock<std::shared_mutex> catalog_lock(server->catalog_mu_);
  IoAccountant io;
  AGGVIEW_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecutePlan(optimized_->plan, optimized_->query,
                  server->MakeContext().WithIo(&io)));
  last_io_pages_ = io.total();
  return result;
}

std::string ServerQuery::Explain() const {
  std::string out = optimized_->description;
  if (!out.empty() && out.back() != '\n') out += "\n";
  out += PlanToString(optimized_->plan, optimized_->query);
  return out;
}

Result<std::string> ServerQuery::ExplainAnalyze() {
  AGGVIEW_ASSIGN_OR_RETURN(Server * server, this->server());
  AdmissionPass pass(&server->admission_);
  std::shared_lock<std::shared_mutex> catalog_lock(server->catalog_mu_);
  IoAccountant io;
  RuntimeStatsCollector stats;
  AGGVIEW_RETURN_NOT_OK(
      ExecutePlan(optimized_->plan, optimized_->query,
                  server->MakeContext().WithIo(&io).WithStats(&stats))
          .status());
  last_io_pages_ = io.total();
  return aggview::ExplainAnalyze(optimized_->plan, optimized_->query, stats);
}

}  // namespace aggview
