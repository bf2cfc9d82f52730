#include "harness.h"

#include <optional>
#include <set>
#include <utility>

#include "metrics.h"

namespace perfbench {

using aggview::Status;

namespace {

class ServerClient : public Client {
 public:
  explicit ServerClient(aggview::ServerSession session)
      : session_(std::move(session)) {}

  ReadOutcome Read(const std::string& sql) override {
    ReadOutcome out;
    out.start_ns = NowNs();
    auto query = session_.Sql(sql);
    out.prepared_ns = NowNs();
    if (!query.ok()) {
      out.status = query.status();
      out.end_ns = out.prepared_ns;
      return out;
    }
    auto result = query->Execute();
    out.end_ns = NowNs();
    out.cache_hit = query->cache_hit();
    out.view_backed = query->view_backed();
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    out.io_pages = query->last_io_pages();
    out.result = std::move(result).value();
    return out;
  }

  Status ApplyDelta(const aggview::TableDelta& delta,
                    aggview::MaintenanceReport* report) override {
    return session_.ApplyDelta(delta, report);
  }

  Status Refresh(const std::string& view) override {
    return session_.ExecuteDdl("refresh materialized view " + view).status();
  }

 private:
  aggview::ServerSession session_;
};

}  // namespace

std::unique_ptr<Client> ServerBackend::Connect() {
  return std::make_unique<ServerClient>(server_->Connect());
}

class TracedClient : public Client {
 public:
  explicit TracedClient(TracedServer* server) : server_(server) {}

  ReadOutcome Read(const std::string& sql) override {
    return server_->Read(sql);
  }
  Status ApplyDelta(const aggview::TableDelta& delta,
                    aggview::MaintenanceReport* report) override {
    return server_->Write(&delta, nullptr, report);
  }
  Status Refresh(const std::string& view) override {
    return server_->Write(nullptr, &view, nullptr);
  }

 private:
  TracedServer* server_;
};

TracedServer::TracedServer(aggview::Server* server, Tracer* tracer)
    : catalog_(server->catalog()),
      options_(server->options()),
      tracer_(tracer),
      cache_(options_.plan_cache_capacity),
      admission_(options_.max_concurrent_queries) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<aggview::ThreadPool>(options_.threads);
  }
}

TracedServer::~TracedServer() = default;

std::unique_ptr<Client> TracedServer::Connect() {
  return std::make_unique<TracedClient>(this);
}

std::vector<StatementRecord> TracedServer::TakeStatementRecords() {
  std::lock_guard<std::mutex> lock(records_mu_);
  return std::exchange(statements_, {});
}

std::vector<WriteRecord> TracedServer::TakeWriteRecords() {
  std::lock_guard<std::mutex> lock(records_mu_);
  return std::exchange(writes_, {});
}

aggview::ExecContext TracedServer::MakeContext() {
  aggview::ExecContext ctx;
  ctx.batch_size = options_.batch_size;
  ctx.threads = options_.threads;
  ctx.backend = options_.backend;
  ctx.bytecode_verify = options_.bytecode_verify;
  ctx.pool = pool_.get();
  return ctx;
}

// Same stamps as Server::CollectDependencies: every scanned table, every
// view answered from, and every other view sharing a base table.
std::vector<aggview::PlanDependency> TracedServer::CollectDependencies(
    const aggview::OptimizedQuery& optimized) const {
  std::set<aggview::TableId> tables;
  for (int i = 0; i < optimized.query.num_range_vars(); ++i) {
    const aggview::RangeVar& rv = optimized.query.range_var(i);
    if (!rv.detached && rv.table >= 0) tables.insert(rv.table);
  }
  std::vector<aggview::PlanDependency> deps;
  for (aggview::TableId t : tables) {
    deps.push_back({"t:" + std::to_string(t), catalog_.table_epoch(t)});
  }
  std::set<std::string> stamped;
  for (const auto& cert : optimized.audit.view_rewrites) {
    const aggview::ViewDefinition* view = catalog_.FindView(cert.view_name);
    deps.push_back({"v:" + cert.view_name,
                    view != nullptr ? view->epoch.load() : -1});
    stamped.insert(cert.view_name);
  }
  for (const auto& view : catalog_.views()) {
    if (stamped.count(view->name) > 0) continue;
    bool relevant = false;
    for (aggview::TableId t : view->base_tables) relevant |= tables.count(t) > 0;
    if (relevant) deps.push_back({"v:" + view->name, view->epoch.load()});
  }
  return deps;
}

ReadOutcome TracedServer::Read(const std::string& sql) {
  Tracer* tr = tracer_;
  const int64_t request = tr != nullptr ? tr->NewId() : 0;
  ReadOutcome out;
  StatementRecord record;
  record.request = request;
  // Kept past the statement for the traditional-cost probe.
  std::optional<aggview::Query> bound;
  std::shared_ptr<const aggview::OptimizedQuery> plan;

  SpanScope root(tr, "harness.statement", request, 0);
  out.start_ns = NowNs();
  {
    SpanScope prepare(tr, "server.prepare", request, root.id());
    SpanScope normalize(tr, "server.normalize", request, prepare.id());
    const std::string key = aggview::NormalizeSql(sql);
    normalize.End();
    SpanScope lock_wait(tr, "server.catalog_lock", request, prepare.id());
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    lock_wait.End();
    const int64_t epoch = catalog_.stats_epoch();
    aggview::DependencyResolver resolver =
        [this](const std::string& dep) -> int64_t {
      if (dep.size() > 2 && dep[1] == ':') {
        if (dep[0] == 't') {
          auto id = static_cast<aggview::TableId>(std::atoll(dep.c_str() + 2));
          if (id < 0 || id >= catalog_.num_tables()) return -1;
          return catalog_.table_epoch(id);
        }
        if (dep[0] == 'v') {
          const aggview::ViewDefinition* view = catalog_.FindView(dep.substr(2));
          return view == nullptr ? -1 : view->epoch.load();
        }
      }
      return -1;
    };
    if (options_.plan_cache_capacity > 0) {
      SpanScope lookup(tr, "server.cache_lookup", request, prepare.id());
      plan = cache_.Lookup(key, epoch, resolver);
    }
    out.cache_hit = plan != nullptr;
    if (plan == nullptr) {
      auto query = [&] {
        SpanScope span(tr, "sql.parse_bind", request, prepare.id());
        return aggview::ParseAndBind(catalog_, sql);
      }();
      if (!query.ok()) {
        out.status = query.status();
        out.prepared_ns = out.end_ns = NowNs();
        return out;
      }
      std::vector<aggview::ViewRewriteCertificate> certs;
      int view_rewrites = 0;
      if (options_.use_materialized_views && catalog_.num_views() > 0) {
        SpanScope span(tr, "view.rewrite", request, prepare.id());
        auto rewrites =
            aggview::RewriteWithMaterializedViews(catalog_, &*query, &certs);
        span.End();
        if (!rewrites.ok()) {
          out.status = rewrites.status();
          out.prepared_ns = out.end_ns = NowNs();
          return out;
        }
        view_rewrites = *rewrites;
      }
      auto optimized = [&] {
        SpanScope span(tr, "optimizer.optimize", request, prepare.id());
        return options_.use_traditional
                   ? aggview::OptimizeTraditional(*query)
                   : aggview::OptimizeQueryWithAggViews(*query,
                                                        options_.optimizer);
      }();
      if (!optimized.ok()) {
        out.status = optimized.status();
        out.prepared_ns = out.end_ns = NowNs();
        return out;
      }
      if (view_rewrites > 0) {
        for (auto& cert : certs) {
          optimized->audit.view_rewrites.push_back(std::move(cert));
        }
        optimized->description = "answered " + std::to_string(view_rewrites) +
                                 " block(s) from materialized views; " +
                                 optimized->description;
        SpanScope span(tr, "analysis.clamp", request, prepare.id());
        optimized->plan = aggview::ClampEstimatesToProvableBounds(
            optimized->plan, optimized->query);
      }
      SpanScope insert(tr, "server.cache_insert", request, prepare.id());
      std::vector<aggview::PlanDependency> deps =
          CollectDependencies(*optimized);
      plan = std::make_shared<const aggview::OptimizedQuery>(
          std::move(optimized).value());
      if (options_.plan_cache_capacity > 0) {
        cache_.Insert(key, epoch, plan, std::move(deps));
      }
      insert.End();
      bound = std::move(query).value();
    }
  }
  out.prepared_ns = NowNs();
  out.view_backed = !plan->audit.view_rewrites.empty();

  aggview::RuntimeStatsCollector stats;
  {
    SpanScope execute(tr, "server.execute", request, root.id());
    SpanScope admission_wait(tr, "server.admission", request, execute.id());
    admission_.Enter();
    admission_wait.End();
    struct Exit {
      aggview::AdmissionController* a;
      ~Exit() { a->Exit(); }
    } exit_admission{&admission_};
    SpanScope lock_wait(tr, "server.catalog_lock", request, execute.id());
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    lock_wait.End();
    aggview::IoAccountant io;
    aggview::ExecContext ctx = MakeContext().WithIo(&io);
    if (tr != nullptr) ctx = ctx.WithStats(&stats);

    auto lowered = [&] {
      SpanScope span(tr, "exec.lower", request, execute.id());
      return aggview::LowerPlan(plan->plan, plan->query, ctx);
    }();
    if (!lowered.ok()) {
      out.status = lowered.status();
      out.end_ns = NowNs();
      return out;
    }
    aggview::Operator* op = lowered->get();
    {
      SpanScope span(tr, "exec.open", request, execute.id());
      out.status = op->Open();
    }
    if (!out.status.ok()) {
      out.end_ns = NowNs();
      return out;
    }
    out.result.layout = op->layout();
    // The same two drain paths as ExecutePlan: a morsel-parallel root is
    // drained by every worker into a private chunk, else serially.
    SpanScope drain(tr, "exec.drain", request, execute.id());
    const int workers = aggview::MorselWorkers(*op);
    std::vector<std::vector<aggview::Row>> chunks(
        static_cast<size_t>(std::max(1, workers)));
    auto drain_instance = [&](int w, aggview::Operator* instance) -> Status {
      std::vector<aggview::Row>& rows = chunks[static_cast<size_t>(w)];
      aggview::RowBatch batch(options_.batch_size);
      while (true) {
        SpanScope next(tr, "exec.next", request, drain.id());
        auto more = instance->Next(&batch);
        next.End();
        if (!more.ok()) return more.status();
        if (!*more) return Status::OK();
        SpanScope copy(tr, "exec.materialize", request, drain.id());
        for (int i = 0; i < batch.size(); ++i) rows.push_back(batch.row(i));
      }
    };
    out.status = workers > 1
                     ? aggview::RunMorselParallel(op, workers, drain_instance)
                     : drain_instance(0, op);
    if (out.status.ok() && workers > 1) {
      SpanScope copy(tr, "exec.materialize", request, drain.id());
      size_t total = 0;
      for (const auto& chunk : chunks) total += chunk.size();
      out.result.rows.reserve(total);
      for (auto& chunk : chunks) {
        for (aggview::Row& row : chunk) out.result.rows.push_back(std::move(row));
      }
    } else if (out.status.ok()) {
      out.result.rows = std::move(chunks[0]);
    }
    drain.End();
    {
      // ExecutePlan tears the operator tree down before it returns.
      SpanScope span(tr, "exec.close", request, execute.id());
      op->Close();
      lowered->reset();
    }
    out.io_pages = io.total();
  }
  out.end_ns = NowNs();
  root.End();
  if (tr == nullptr) return out;

  // Probes outside the statement's spans.
  record.cache_hit = out.cache_hit;
  record.view_backed = out.view_backed;
  if (bound.has_value()) {
    record.optimized = true;
    record.alternatives = static_cast<int64_t>(plan->alternatives.size());
    record.transforms = plan->audit.size();
    record.groupby_placements = plan->counters.groupby_placements;
    auto traditional = aggview::OptimizeTraditional(*bound);
    if (traditional.ok() && plan->plan->cost > 0) {
      record.est_cost_ratio = traditional->plan->cost / plan->plan->cost;
    }
  }
  if (out.status.ok()) record.operators = OperatorSelfTimes(plan->plan, stats);
  std::lock_guard<std::mutex> lock(records_mu_);
  statements_.push_back(std::move(record));
  return out;
}

Status TracedServer::Write(const aggview::TableDelta* delta,
                           const std::string* refresh_view,
                           aggview::MaintenanceReport* report) {
  Tracer* tr = tracer_;
  const int64_t request = tr != nullptr ? tr->NewId() : 0;
  WriteRecord record;
  record.request = request;
  record.refresh = refresh_view != nullptr;
  Status status;
  {
    SpanScope root(tr, "harness.write", request, 0);
    SpanScope lock_wait(tr, "server.catalog_lock", request, root.id());
    std::unique_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    lock_wait.End();
    if (delta != nullptr) {
      SpanScope span(tr, "view.apply_delta", request, root.id());
      status = aggview::ApplyTableDelta(&catalog_, *delta, &record.report);
    } else {
      SpanScope span(tr, "view.refresh", request, root.id());
      status = aggview::RefreshMaterializedView(&catalog_, *refresh_view,
                                                MakeContext());
    }
  }
  if (report != nullptr) *report = record.report;
  if (tr == nullptr) return status;
  std::lock_guard<std::mutex> lock(records_mu_);
  writes_.push_back(std::move(record));
  return status;
}

}  // namespace perfbench
