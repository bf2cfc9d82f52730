#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "aggview.h"
#include "trace.h"

namespace perfbench {

/// What one read statement (Sql() + Execute()) did.
struct ReadOutcome {
  aggview::Status status;
  aggview::QueryResult result;
  bool cache_hit = false;
  bool view_backed = false;
  int64_t io_pages = 0;
  int64_t start_ns = 0;
  /// End of Sql(), i.e. the start of Execute().
  int64_t prepared_ns = 0;
  int64_t end_ns = 0;
};

/// One client connection. Clients are used by one thread each.
class Client {
 public:
  virtual ~Client() = default;
  virtual ReadOutcome Read(const std::string& sql) = 0;
  virtual aggview::Status ApplyDelta(const aggview::TableDelta& delta,
                                     aggview::MaintenanceReport* report) = 0;
  virtual aggview::Status Refresh(const std::string& view) = 0;
};

/// The path statements take: straight through aggview::Server (untraced), or
/// through TracedServer, which makes the same calls with a span around each.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::unique_ptr<Client> Connect() = 0;
  virtual aggview::PlanCacheStats cache_stats() const = 0;
};

/// The public serving API, as users call it.
class ServerBackend : public Backend {
 public:
  explicit ServerBackend(aggview::Server* server) : server_(server) {}
  std::unique_ptr<Client> Connect() override;
  aggview::PlanCacheStats cache_stats() const override {
    return server_->cache_stats();
  }

 private:
  aggview::Server* server_;
};

/// Per prepared or executed statement facts the traced run records besides
/// its spans.
struct StatementRecord {
  int64_t request = 0;
  bool cache_hit = false;
  bool view_backed = false;
  /// Filled on cache misses only (the optimizer ran).
  bool optimized = false;
  int64_t alternatives = 0;
  int64_t transforms = 0;
  int64_t groupby_placements = 0;
  /// Traditional estimated cost / chosen plan's estimated cost; 0 when the
  /// probe could not run.
  double est_cost_ratio = 0.0;
  std::vector<OperatorSelf> operators;
};

/// One base-table delta or REFRESH and what it did.
struct WriteRecord {
  int64_t request = 0;
  bool refresh = false;
  aggview::MaintenanceReport report;
};

/// A mirror of aggview::Server's Prepare and Execute built from the same
/// public calls in the same order — NormalizeSql, PlanCache lookup,
/// ParseAndBind, RewriteWithMaterializedViews, OptimizeQueryWithAggViews,
/// ClampEstimatesToProvableBounds, LowerPlan, Operator Open/Next/Close and
/// the copy into the result — with a span around each. It serves the
/// catalog of an existing Server (which must sit idle meanwhile), keeps its
/// own plan cache with the server's capacity and the server's dependency
/// stamps, so it re-prepares exactly when the server would, and its own
/// readers-writer lock between reads and writes.
class TracedServer : public Backend {
 public:
  /// `tracer` null runs the same calls without spans or records (warm-up).
  TracedServer(aggview::Server* server, Tracer* tracer);
  ~TracedServer() override;
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  std::unique_ptr<Client> Connect() override;
  aggview::PlanCacheStats cache_stats() const override {
    return cache_.stats();
  }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  std::vector<StatementRecord> TakeStatementRecords();
  std::vector<WriteRecord> TakeWriteRecords();

 private:
  friend class TracedClient;

  ReadOutcome Read(const std::string& sql);
  aggview::Status Write(const aggview::TableDelta* delta,
                        const std::string* refresh_view,
                        aggview::MaintenanceReport* report);
  std::vector<aggview::PlanDependency> CollectDependencies(
      const aggview::OptimizedQuery& optimized) const;
  aggview::ExecContext MakeContext();

  aggview::Catalog& catalog_;
  const aggview::ServerOptions options_;
  Tracer* tracer_;
  mutable std::shared_mutex catalog_mu_;
  aggview::PlanCache cache_;
  aggview::AdmissionController admission_;
  std::unique_ptr<aggview::ThreadPool> pool_;
  std::mutex records_mu_;
  std::vector<StatementRecord> statements_;
  std::vector<WriteRecord> writes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
