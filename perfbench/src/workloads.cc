#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <list>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/random.h"

namespace perfbench {

using aggview::Status;

namespace {

/// Reads needed for a reportable p95: 10 samples beyond the 190th of 200.
constexpr int64_t kMinReads = 200;
/// Set-ups per run, setup_s being their median: at least three, and more
/// until they add up to two seconds, so that a sub-millisecond set-up is
/// timed long after the process started and the median is steady.
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 20'000;
constexpr double kSetupBudgetS = 2.0;

// olap_hot: TPC-D at SF 0.05 (~300k lineitem rows) on a 4-thread pool.
constexpr double kOlapScale = 0.05;
constexpr int kOlapThreads = 4;

// adhoc_views: emp/dept small enough that the generator's fan-out self
// joins stay in memory (20k employees ran out of memory).
constexpr int64_t kAdhocEmployees = 300;
constexpr int64_t kAdhocDepartments = 12;
/// Distinct generated statements, cycled; more than the plan cache holds,
/// so a repeated text has been evicted by the time it comes back.
constexpr size_t kAdhocPool = 1024;
constexpr uint64_t kAdhocPoolSeed = 20'240'601;

// matview_mix: emp at 200k rows, one reader, one open-loop writer. With two
// readers the writer waits for a moment when neither holds the catalog lock,
// and that wait, and with it read throughput, varied twofold between runs.
constexpr int64_t kMixEmployees = 200'000;
constexpr int64_t kMixDepartments = 200;
constexpr int kMixReaders = 1;
constexpr int64_t kDeltaRows = 16;  // half inserts, half deletes
/// Fixed write rate, one write every two seconds: a faster writer would
/// invalidate plans more often and look like a read regression. Each write
/// invalidates every cached plan over emp, and this rate keeps re-prepares
/// well under half of all prepares, so prepare_p50_ms stays a cache hit.
constexpr double kWritesPerSecond = 0.5;
/// Every fourth write slot REFRESHes the join view instead of a delta.
constexpr int kRefreshEvery = 4;
/// ComputeStats probes after the traced phase.
constexpr int kComputeStatsProbes = 10;
/// The reader pauses between statements. The server's catalog lock lets a
/// writer in only when no reader holds it; two readers that never paused
/// starved the writer until they stopped.
constexpr int64_t kReaderThinkNs = 10'000'000;

const char* const kOpClasses[] = {"TableScan", "Filter",        "Project",
                                  "HashJoin",  "NestedLoopJoin", "SortMergeJoin",
                                  "HashAggregate", "Sort"};

double ToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Every ServerOptions field set explicitly: ServerOptions::Default() would
/// read the AGGVIEW_TEST_* and AGGVIEW_VERIFY_BYTECODE environment knobs.
aggview::ServerOptions PinnedOptions(int threads) {
  aggview::ServerOptions options;
  options.threads = threads;
  options.batch_size = aggview::kDefaultBatchSize;
  options.backend = aggview::ExecBackend::kInterpret;
  options.bytecode_verify = aggview::BytecodeVerifyMode::kOn;
  options.use_traditional = false;
  options.optimizer = aggview::OptimizerOptions();
  options.optimizer.paranoid = false;
  options.use_materialized_views = true;
  options.plan_cache_capacity = 256;
  options.max_concurrent_queries = 0;
  return options;
}

/// The oracle: the traditional optimizer's plan, executed serially,
/// without materialized views.
aggview::Result<aggview::QueryResult> ReferenceResult(
    const aggview::Catalog& catalog, const std::string& sql) {
  AGGVIEW_ASSIGN_OR_RETURN(aggview::Query query,
                           aggview::ParseAndBind(catalog, sql));
  AGGVIEW_ASSIGN_OR_RETURN(aggview::OptimizedQuery optimized,
                           aggview::OptimizeTraditional(query));
  aggview::ExecContext serial;
  serial.threads = 1;
  serial.batch_size = aggview::kDefaultBatchSize;
  serial.backend = aggview::ExecBackend::kInterpret;
  return aggview::ExecutePlan(optimized.plan, optimized.query, serial);
}

std::string OneLine(const std::string& sql) {
  std::string out;
  for (char c : sql) {
    const bool space = c == '\n' || c == '\t' || c == ' ';
    if (space && (out.empty() || out.back() == ' ')) continue;
    out.push_back(space ? ' ' : c);
  }
  return out;
}

class Workload {
 public:
  explicit Workload(const RunOptions& options) : options_(options) {}
  virtual ~Workload() = default;

  /// Workload parameters for the stamp.
  virtual std::string Params() const = 0;
  /// Builds a server ready to serve (data, statistics, views). Timed.
  virtual aggview::Result<std::unique_ptr<aggview::Server>> Setup() = 0;
  /// Once, after the last set-up: references and plan-shape checks.
  virtual Status Prepare(aggview::Server* server, RunReport* report) = 0;
  /// Runs untimed statements that fill the plan cache, as a long-running
  /// server's would be.
  virtual void WarmUp(Backend* backend, RunReport* report) = 0;
  /// One measured phase.
  virtual Phase Run(Backend* backend, const PhaseLimits& limits,
                    RunReport* report) = 0;
  /// Once, after the last phase: end-of-run correctness checks.
  virtual void Finish(aggview::Server* server, RunReport* report) = 0;
  /// Single-client workloads replay the same statements in the traced run
  /// and assert exact plan-cache counts.
  virtual bool single_client() const = 0;
  /// Normalized texts of the warm-up plus `reads` measured statements.
  virtual std::vector<std::string> CacheSequence(int64_t reads) const = 0;
  /// Traced runs: durations (ms) of ComputeStats on the written table.
  virtual std::vector<double> ComputeStatsProbe(aggview::Server*) { return {}; }

 protected:
  const RunOptions options_;
};

// ---------------------------------------------------------------------------
// Single-client workloads: olap_hot and adhoc_views.

class SerialWorkload : public Workload {
 public:
  using Workload::Workload;

  Status Prepare(aggview::Server* server, RunReport* report) override {
    server_ = server;
    // References of the warm-up statements up front; the rest lazily,
    // outside the latency clock, the first time each statement runs.
    for (size_t i = 0; i < warm_statements_; ++i) {
      if (!Reference(i, report).has_value()) {
        return Status::Internal("reference failed: " + statements_[i]);
      }
    }
    return Status::OK();
  }

  void WarmUp(Backend* backend, RunReport* report) override {
    if (warm_statements_ == 0) return;
    PhaseLimits limits;
    limits.exact_reads = static_cast<int64_t>(warm_statements_);
    limits.hard_deadline_ns = NowNs() + int64_t{600} * 1'000'000'000;
    std::unique_ptr<Client> client = backend->Connect();
    Phase warm = RunSerialPhase(client.get(), statements_, limits,
                                Checker(report), &report->failures);
    Account(warm, report);
  }

  Phase Run(Backend* backend, const PhaseLimits& limits,
            RunReport* report) override {
    std::unique_ptr<Client> client = backend->Connect();
    Phase phase = RunSerialPhase(client.get(), statements_, limits,
                                 Checker(report), &report->failures);
    Account(phase, report);
    return phase;
  }

  void Finish(aggview::Server*, RunReport*) override {}
  bool single_client() const override { return true; }

  std::vector<std::string> CacheSequence(int64_t reads) const override {
    std::vector<std::string> normalized;
    for (const std::string& sql : statements_) {
      normalized.push_back(aggview::NormalizeSql(sql));
    }
    std::vector<std::string> sequence(normalized.begin(),
                                      normalized.begin() +
                                          static_cast<long>(warm_statements_));
    for (int64_t i = 0; i < reads; ++i) {
      sequence.push_back(normalized[static_cast<size_t>(i) % normalized.size()]);
    }
    return sequence;
  }

 protected:
  static void Account(const Phase& phase, RunReport* report) {
    report->attempted += phase.attempted;
    report->failed += phase.failed;
  }

  std::optional<ResultDigest> Reference(size_t index, RunReport* report) {
    auto it = reference_.find(index);
    if (it != reference_.end()) return it->second;
    auto result = ReferenceResult(server_->catalog(), statements_[index]);
    if (!result.ok()) {
      report->notes.push_back("reference failed: " +
                              result.status().ToString() + " | " +
                              OneLine(statements_[index]));
      return std::nullopt;
    }
    ResultDigest digest = DigestOf(*result);
    reference_.emplace(index, digest);
    return digest;
  }

  ResultCheck Checker(RunReport* report) {
    return [this, report](size_t index, const aggview::QueryResult& result) {
      std::optional<ResultDigest> expected =
          Reference(index % statements_.size(), report);
      return expected.has_value() && *expected == DigestOf(result);
    };
  }

  aggview::Server* server_ = nullptr;
  std::vector<std::string> statements_;
  /// Leading statements run once, untimed, before measuring.
  size_t warm_statements_ = 0;
  std::unordered_map<size_t, ResultDigest> reference_;
};

class OlapHot : public SerialWorkload {
 public:
  explicit OlapHot(const RunOptions& options) : SerialWorkload(options) {
    for (const auto& q : aggview::tpcd_queries::AllQueries()) {
      statements_.push_back(q.sql);
    }
    // bench_e14's scan_join, aggregate and point statements.
    statements_.push_back(
        "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
        "from lineitem l, supplier s "
        "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0");
    statements_.push_back(
        "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
        "from lineitem l group by l.l_suppkey");
    statements_.push_back(
        "select s.s_acctbal from supplier s where s.s_suppkey = 1");
    warm_statements_ = statements_.size();
  }

  double scale() const { return options_.smoke ? 0.002 : kOlapScale; }

  std::string Params() const override {
    return Fmt("{\"scale_factor\": %g, \"threads\": %d, \"clients\": 1, "
               "\"statements\": %zu}",
               scale(), kOlapThreads, statements_.size());
  }

  aggview::Result<std::unique_ptr<aggview::Server>> Setup() override {
    auto server = std::make_unique<aggview::Server>(PinnedOptions(kOlapThreads));
    AGGVIEW_ASSIGN_OR_RETURN(aggview::TpcdTables tables,
                             aggview::CreateTpcdSchema(&server->catalog()));
    aggview::DbgenOptions dbgen;
    dbgen.scale_factor = scale();
    dbgen.seed = options_.seed;
    AGGVIEW_RETURN_NOT_OK(
        aggview::GenerateTpcdData(&server->catalog(), tables, dbgen));
    return server;
  }
};

class AdhocViews : public SerialWorkload {
 public:
  // The statement texts come from a fixed generator seed and --seed picks
  // their order (and the data): a pool drawn per seed would change which
  // fan-out joins it holds, and with them peak memory and the latency tail.
  explicit AdhocViews(const RunOptions& options) : SerialWorkload(options) {
    aggview::Rng generator(kAdhocPoolSeed);
    const size_t pool = options.smoke ? 64 : kAdhocPool;
    for (size_t i = 0; i < pool; ++i) {
      statements_.push_back(aggview::GenerateAggViewSql(&generator));
    }
    aggview::Rng order(options.seed);
    for (size_t i = statements_.size(); i > 1; --i) {
      const auto j = static_cast<size_t>(
          order.Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(statements_[i - 1], statements_[j]);
    }
  }

  std::string Params() const override {
    return Fmt("{\"employees\": %lld, \"departments\": %lld, \"threads\": 1, "
               "\"clients\": 1, \"statement_pool\": %zu}",
               static_cast<long long>(kAdhocEmployees),
               static_cast<long long>(kAdhocDepartments), statements_.size());
  }

  aggview::Result<std::unique_ptr<aggview::Server>> Setup() override {
    auto server = std::make_unique<aggview::Server>(PinnedOptions(1));
    AGGVIEW_ASSIGN_OR_RETURN(aggview::EmpDeptTables tables,
                             aggview::CreateEmpDeptSchema(&server->catalog()));
    aggview::EmpDeptOptions data;
    data.num_employees = kAdhocEmployees;
    data.num_departments = kAdhocDepartments;
    data.seed = options_.seed;
    AGGVIEW_RETURN_NOT_OK(
        aggview::GenerateEmpDeptData(&server->catalog(), tables, data));
    return server;
  }
};

// ---------------------------------------------------------------------------
// matview_mix: closed-loop readers beside an open-loop writer.

struct MixStatement {
  const char* sql;
  /// True when a fresh view answers it.
  bool view_answerable;
};

// Two rollups of each view and four aggregates no view answers. The join
// view is stale from a delta until the next REFRESH, and its rollups then
// run on the base tables too.
const MixStatement kMixStatements[] = {
    {"select dno, sum(sal), count(*) from emp group by dno", true},
    {"select sum(sal), count(*) from emp", true},
    {"select d.budget, sum(e.sal), count(*) from emp e, dept d "
     "where e.dno = d.dno group by d.budget",
     true},
    {"select count(*) from emp e, dept d where e.dno = d.dno", true},
    {"select dno, max(sal) from emp group by dno", false},
    {"select age, count(*) from emp group by age", false},
    {"select dno, avg(age) from emp where age < 30 group by dno", false},
    {"select d.budget, max(e.age) from emp e, dept d "
     "where e.dno = d.dno group by d.budget",
     false},
};

constexpr const char* kSingleViewDdl =
    "create materialized view mv_dsal (dno, total, cnt) as "
    "select dno, sum(sal), count(*) from emp group by dno";
constexpr const char* kJoinViewDdl =
    "create materialized view mv_budget (budget, total, cnt) as "
    "select d.budget, sum(e.sal), count(*) from emp e, dept d "
    "where e.dno = d.dno group by d.budget";
constexpr const char* kJoinView = "mv_budget";

class MatviewMix : public Workload {
 public:
  using Workload::Workload;

  int64_t employees() const { return options_.smoke ? 20'000 : kMixEmployees; }

  std::string Params() const override {
    return Fmt("{\"employees\": %lld, \"departments\": %lld, \"threads\": 1, "
               "\"readers\": %d, \"writes_per_s\": %g, \"delta_rows\": %lld, "
               "\"refresh_every\": %d}",
               static_cast<long long>(employees()),
               static_cast<long long>(kMixDepartments), kMixReaders,
               kWritesPerSecond, static_cast<long long>(kDeltaRows),
               kRefreshEvery);
  }

  aggview::Result<std::unique_ptr<aggview::Server>> Setup() override {
    auto server = std::make_unique<aggview::Server>(PinnedOptions(1));
    AGGVIEW_ASSIGN_OR_RETURN(aggview::EmpDeptTables tables,
                             aggview::CreateEmpDeptSchema(&server->catalog()));
    aggview::EmpDeptOptions data;
    data.num_employees = employees();
    data.num_departments = kMixDepartments;
    data.seed = options_.seed;
    AGGVIEW_RETURN_NOT_OK(
        aggview::GenerateEmpDeptData(&server->catalog(), tables, data));
    AGGVIEW_RETURN_NOT_OK(server->ExecuteDdl(kSingleViewDdl).status());
    AGGVIEW_RETURN_NOT_OK(server->ExecuteDdl(kJoinViewDdl).status());
    emp_ = tables.emp;
    return server;
  }

  Status Prepare(aggview::Server* server, RunReport*) override {
    aggview::ServerSession session = server->Connect();
    for (const MixStatement& s : kMixStatements) {
      AGGVIEW_ASSIGN_OR_RETURN(aggview::ServerQuery query, session.Sql(s.sql));
      if (query.view_backed() != s.view_answerable) {
        return Status::Internal(std::string("unexpected plan provenance: ") +
                                s.sql);
      }
    }
    return Status::OK();
  }

  void WarmUp(Backend*, RunReport*) override {}

  Phase Run(Backend* backend, const PhaseLimits& limits,
            RunReport* report) override {
    Phase phase;
    phase.begin_ns = NowNs();
    const double cpu_begin = ProcessCpuSeconds();
    std::atomic<int64_t> reads_done{0};
    std::mutex mu;  // guards phase and report while the threads run
    auto reader = [&](int r) {
      std::unique_ptr<Client> client = backend->Connect();
      const size_t n = std::size(kMixStatements);
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      aggview::Rng rng(options_.seed * 31 + static_cast<uint64_t>(r));
      for (size_t i = n; i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
      std::vector<ReadSample> samples;
      int64_t failed = 0;
      std::vector<std::string> failures;
      for (size_t i = 0;; ++i) {
        const int64_t now = NowNs();
        if (now >= limits.hard_deadline_ns) break;
        if (now >= limits.deadline_ns && reads_done.load() >= limits.min_reads) {
          break;
        }
        const char* sql = kMixStatements[order[i % n]].sql;
        ReadOutcome out = client->Read(sql);
        if (!out.status.ok()) {
          ++failed;
          failures.push_back("FAILED " + out.status.ToString() + " | " + sql);
          continue;
        }
        samples.push_back({out.start_ns, out.prepared_ns, out.end_ns,
                           out.cache_hit, out.view_backed, out.io_pages});
        reads_done.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::nanoseconds(kReaderThinkNs));
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.reads.insert(phase.reads.end(), samples.begin(), samples.end());
      phase.attempted += static_cast<int64_t>(samples.size()) + failed;
      phase.failed += failed;
      report->failures.insert(report->failures.end(), failures.begin(),
                              failures.end());
    };
    auto writer = [&] {
      std::unique_ptr<Client> client = backend->Connect();
      const auto period_ns = static_cast<int64_t>(1e9 / kWritesPerSecond);
      std::vector<WriteSample> samples;
      int64_t failed = 0;
      std::vector<std::string> failures;
      for (int64_t s = 0;; ++s) {
        const int64_t due = phase.begin_ns + s * period_ns;
        if (due >= limits.deadline_ns) break;
        while (NowNs() < due) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(std::min<int64_t>(due - NowNs(), 1'000'000)));
        }
        WriteSample sample;
        sample.due_ns = due;
        sample.start_ns = NowNs();
        sample.refresh = write_slot_ % kRefreshEvery == kRefreshEvery - 1;
        ++write_slot_;
        Status st;
        if (sample.refresh) {
          st = client->Refresh(kJoinView);
        } else {
          aggview::MaintenanceReport maintenance;
          st = client->ApplyDelta(NextDelta(), &maintenance);
        }
        sample.end_ns = NowNs();
        if (!st.ok()) {
          ++failed;
          failures.push_back("FAILED write: " + st.ToString());
          continue;
        }
        samples.push_back(sample);
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.writes = std::move(samples);
      phase.attempted += static_cast<int64_t>(phase.writes.size()) + failed;
      phase.failed += failed;
      report->failures.insert(report->failures.end(), failures.begin(),
                              failures.end());
    };
    {
      std::vector<std::thread> threads;
      for (int r = 0; r < kMixReaders; ++r) threads.emplace_back(reader, r);
      threads.emplace_back(writer);
      for (std::thread& t : threads) t.join();
    }
    phase.end_ns = NowNs();
    phase.cpu_s = ProcessCpuSeconds() - cpu_begin;
    report->attempted += phase.attempted;
    report->failed += phase.failed;
    return phase;
  }

  // bench_e16's check: every statement a view answers must match its
  // base-only plan byte for byte. The join view is refreshed first so both
  // views are checked.
  void Finish(aggview::Server* server, RunReport* report) override {
    aggview::ServerSession session = server->Connect();
    Status st = session.ExecuteDdl(std::string("refresh materialized view ") +
                                   kJoinView)
                    .status();
    if (!st.ok()) {
      report->correct = false;
      report->failures.push_back("MISMATCH final refresh failed: " +
                                 st.ToString());
      return;
    }
    for (const MixStatement& s : kMixStatements) {
      auto query = session.Sql(s.sql);
      auto answered = query.ok() ? query->Execute()
                                 : aggview::Result<aggview::QueryResult>(
                                       query.status());
      auto base = ReferenceResult(server->catalog(), s.sql);
      const bool view_backed = query.ok() && query->view_backed();
      if (!answered.ok() || !base.ok() || view_backed != s.view_answerable ||
          answered->Fingerprint() != base->Fingerprint()) {
        report->correct = false;
        report->failures.push_back(
            std::string("MISMATCH view answer vs base plan | ") + s.sql);
      }
    }
  }

  bool single_client() const override { return false; }
  std::vector<std::string> CacheSequence(int64_t) const override { return {}; }

  // Stands in for the stats-recompute span a later change will add inside
  // ApplyTableDelta: the same public call on the table the deltas changed,
  // timed once the writer has stopped so it does not delay the writer.
  std::vector<double> ComputeStatsProbe(aggview::Server* server) override {
    std::vector<double> ms;
    const aggview::Table& emp = *server->catalog().table(emp_).data;
    for (int i = 0; i < kComputeStatsProbes; ++i) {
      const int64_t begin = NowNs();
      const aggview::TableStats stats = aggview::ComputeStats(emp);
      ms.push_back(ToMs(NowNs() - begin));
      (void)stats;
    }
    return ms;
  }

 private:
  /// The k-th delta of the run: 8 new employees and 8 deleted rows, drawn
  /// from the seed alone so every run with that seed writes the same rows.
  aggview::TableDelta NextDelta() {
    aggview::Rng rng(options_.seed * 1'000'003 +
                     static_cast<uint64_t>(delta_count_));
    ++delta_count_;
    aggview::TableDelta delta;
    delta.table = emp_;
    for (int64_t i = 0; i < kDeltaRows / 2; ++i) {
      delta.inserts.push_back(
          {aggview::Value::Int(next_eno_++),
           aggview::Value::Int(rng.Uniform(1, kMixDepartments)),
           aggview::Value::Real(rng.UniformReal(20'000.0, 200'000.0)),
           aggview::Value::Int(rng.Uniform(18, 65))});
    }
    // Inserts and deletes balance, so the table keeps employees() rows.
    while (static_cast<int64_t>(delta.deletes.size()) < kDeltaRows / 2) {
      int64_t row = rng.Uniform(0, employees() - 1);
      if (std::find(delta.deletes.begin(), delta.deletes.end(), row) ==
          delta.deletes.end()) {
        delta.deletes.push_back(row);
      }
    }
    return delta;
  }

  aggview::TableId emp_ = -1;
  int64_t next_eno_ = 100'000'000;
  int64_t delta_count_ = 0;
  int64_t write_slot_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics.

struct Percentiles {
  double value = 0.0;
  bool reportable = false;
  size_t n = 0;
};

Percentiles Pct(const std::vector<double>& samples, double p) {
  Percentiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::optional<double> v = ReportablePercentile(samples, p);
  if (v.has_value()) {
    out.value = *v;
    out.reportable = true;
  } else {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    out.value = sorted[static_cast<size_t>(
        NearestRankIndex(static_cast<int64_t>(sorted.size()), p))];
  }
  return out;
}

void AddPercentile(RunReport* report, std::vector<Metric>* into,
                   const std::string& name, const std::vector<double>& samples,
                   double p, const std::string& unit) {
  Percentiles pct = Pct(samples, p);
  into->push_back({name, pct.value, unit});
  report->notes.push_back(Fmt("%-28s n=%zu%s", name.c_str(), pct.n,
                              pct.reportable ? ""
                                             : "  (NOT reportable: fewer than "
                                               "10 samples beyond)"));
}

void EndToEndMetrics(const Phase& phase, const std::vector<double>& setup_s,
                     bool single_client, RunReport* report) {
  std::vector<double> latency_ms, prepare_ms, write_ms;
  double io_pages = 0.0;
  for (const ReadSample& r : phase.reads) {
    latency_ms.push_back(ToMs(r.end_ns - r.start_ns));
    prepare_ms.push_back(ToMs(r.prepared_ns - r.start_ns));
    io_pages += static_cast<double>(r.io_pages);
  }
  for (const WriteSample& w : phase.writes) {
    write_ms.push_back(ToMs(w.end_ns - w.due_ns));
  }
  // A single client checks results between statements; that time is the
  // benchmark's, not the server's.
  const int64_t busy_ns =
      phase.end_ns - phase.begin_ns - (single_client ? phase.check_ns : 0);
  const auto reads = static_cast<double>(phase.reads.size());
  std::vector<Metric>& m = report->metrics;
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"qps", busy_ns > 0 ? reads / (static_cast<double>(busy_ns) / 1e9)
                                  : 0.0,
               "1/s"});
  AddPercentile(report, &m, "query_p50_ms", latency_ms, 0.50, "ms");
  AddPercentile(report, &m, "query_p95_ms", latency_ms, 0.95, "ms");
  AddPercentile(report, &m, "prepare_p50_ms", prepare_ms, 0.50, "ms");
  // Printed, not bounded: on matview_mix about one prepare in twenty waits
  // behind a write, so this tail jumps between cache-hit and blocked times.
  AddPercentile(report, &report->extra, "prepare_p95_ms", prepare_ms, 0.95,
                "ms");
  m.push_back({"io_pages_per_query", reads > 0 ? io_pages / reads : 0.0,
               "pages"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  // Writes are few: report a percentile only when ten writes lie beyond
  // it, and otherwise the highest one that has them.
  for (double q : {0.50, 0.90}) {
    if (phase.writes.empty()) break;
    const auto n = static_cast<int64_t>(write_ms.size());
    const double reportable = std::min(q, HighestReportablePercentile(n));
    if (reportable < q) {
      report->notes.push_back(Fmt("write_p%.0f_ms not reportable from %lld "
                                  "writes",
                                  q * 100, static_cast<long long>(n)));
    }
    if (reportable <= 0.0) continue;
    const auto pct = static_cast<int>(std::floor(reportable * 100 + 1e-9));
    AddPercentile(report, &report->extra, Fmt("write_p%d_ms", pct), write_ms,
                  pct / 100.0, "ms");
  }
  report->extra.push_back(
      {"error_rate", ErrorRate(report->attempted, report->failed), "ratio"});
  report->notes.push_back(Fmt("error_rate base: %lld failed of %lld operations",
                              static_cast<long long>(report->failed),
                              static_cast<long long>(report->attempted)));
}

/// Per-layer metrics of the traced phase (`traced`), with `untraced` the
/// same statements run through the Server for the tracing overhead.
void PerLayerMetrics(const std::string& workload, const Tracer& tracer,
                     const std::vector<StatementRecord>& statements,
                     const std::vector<WriteRecord>& writes,
                     const std::vector<double>& compute_stats_ms,
                     const Phase& untraced, const Phase& traced,
                     const aggview::PlanCacheStats& cache, bool single_client,
                     RunReport* report) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::unordered_map<int64_t, const StatementRecord*> by_request;
  for (const StatementRecord& s : statements) by_request[s.request] = &s;

  int64_t statement_ns = 0;
  std::map<std::string, int64_t> layer_self;
  std::map<std::string, std::vector<double>> durations_us;
  std::vector<double> prepare_hit_us, prepare_miss_us;
  int64_t drain_ns = 0, next_ns = 0, materialize_ns = 0, open_ns = 0;
  std::vector<std::pair<int64_t, int64_t>> write_spans, statement_spans;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    durations_us[name].push_back(ToUs(s.duration_ns()));
    // The writes' exclusive-lock hold times.
    if (name == "view.apply_delta" || name == "view.refresh") {
      write_spans.emplace_back(s.start_ns, s.end_ns);
    }
    auto rec = by_request.find(s.request);
    if (rec == by_request.end()) continue;  // writes and probes
    layer_self[LayerOf(s.name)] += self[i];
    if (name == "harness.statement") statement_ns += s.duration_ns();
    if (name == "server.prepare") {
      (rec->second->cache_hit ? prepare_hit_us : prepare_miss_us)
          .push_back(ToUs(s.duration_ns()));
    }
    if (name == "harness.statement") {
      statement_spans.emplace_back(s.start_ns, s.end_ns);
    }
    if (name == "exec.open") open_ns += s.duration_ns();
    if (name == "exec.drain") drain_ns += s.duration_ns();
    if (name == "exec.next") next_ns += s.duration_ns();
    if (name == "exec.materialize") materialize_ns += s.duration_ns();
  }
  // Layer shares divide by the statements' summed self time, which counts
  // parallel workers' spans once each; the exec phase shares divide by the
  // statements' wall time.
  int64_t self_total = 0;
  for (const auto& [layer, ns] : layer_self) self_total += ns;
  auto layer_share = [&](const char* layer) {
    return self_total > 0 ? static_cast<double>(layer_self[layer]) /
                                static_cast<double>(self_total)
                          : 0.0;
  };
  auto share = [&](int64_t ns) {
    return statement_ns > 0 ? static_cast<double>(ns) /
                                  static_cast<double>(statement_ns)
                            : 0.0;
  };
  // Parallel drains overlap Next and copy spans across workers; split the
  // drain's wall time in proportion to their summed durations.
  const double drain_cpu = static_cast<double>(next_ns + materialize_ns);
  const double materialize_part =
      drain_cpu > 0 ? static_cast<double>(materialize_ns) / drain_cpu : 0.0;

  std::vector<Metric>& m = report->metrics;
  auto p = [&](const std::string& name, const std::vector<double>& samples,
               double q, double scale, const std::string& unit) {
    std::vector<double> scaled;
    for (double v : samples) scaled.push_back(v * scale);
    std::optional<double> v = ReportablePercentile(scaled, q);
    m.push_back({name, v.value_or(0.0), unit});
    if (!v.has_value()) {
      report->notes.push_back(Fmt("%-34s 0: n=%zu, too few samples to report",
                                  name.c_str(), samples.size()));
    }
  };
  const auto n_reads = static_cast<double>(statements.size());
  auto per_read = [&](double v) { return n_reads > 0 ? v / n_reads : 0.0; };

  // server
  p("server.prepare_hit_p50_us", prepare_hit_us, 0.5, 1.0, "us");
  p("server.prepare_miss_p50_us", prepare_miss_us, 0.5, 1.0, "us");
  const int64_t lookups = cache.hits + cache.misses;
  m.push_back({"server.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio"});
  m.push_back({"server.cache_invalidations",
               static_cast<double>(cache.invalidations), "count"});
  std::sort(write_spans.begin(), write_spans.end());
  int64_t blocked = 0;
  for (const auto& [lo, hi] : statement_spans) {
    for (const auto& [wlo, whi] : write_spans) {
      if (wlo >= hi) break;
      if (whi > lo) {
        ++blocked;
        break;
      }
    }
  }
  m.push_back({"server.read_blocked_share",
               statement_spans.empty()
                   ? 0.0
                   : static_cast<double>(blocked) /
                         static_cast<double>(statement_spans.size()),
               "ratio"});
  m.push_back({"server.share", layer_share("server"), "ratio"});

  // sql
  p("sql.parse_bind_p50_us", durations_us["sql.parse_bind"], 0.5, 1.0, "us");
  m.push_back({"sql.share", layer_share("sql"), "ratio"});

  // view
  p("view.rewrite_p50_us", durations_us["view.rewrite"], 0.5, 1.0, "us");
  int64_t answered = 0;
  for (const StatementRecord& s : statements) answered += s.view_backed ? 1 : 0;
  m.push_back({"view.answered_ratio", per_read(static_cast<double>(answered)),
               "ratio"});
  p("view.apply_delta_p50_ms", durations_us["view.apply_delta"], 0.5, 1e-3,
    "ms");
  double touched = 0, recomputed = 0, deltas = 0;
  for (const WriteRecord& w : writes) {
    if (w.refresh) continue;
    deltas += 1;
    touched += static_cast<double>(w.report.groups_touched);
    recomputed += static_cast<double>(w.report.groups_recomputed);
  }
  m.push_back({"view.groups_touched_per_delta",
               deltas > 0 ? touched / deltas : 0.0, "count"});
  m.push_back({"view.groups_recomputed_per_delta",
               deltas > 0 ? recomputed / deltas : 0.0, "count"});
  p("view.refresh_p50_ms", durations_us["view.refresh"], 0.5, 1e-3, "ms");
  m.push_back({"view.share", layer_share("view"), "ratio"});

  // catalog
  p("catalog.compute_stats_ms", compute_stats_ms, 0.5, 1.0, "ms");

  // optimizer
  p("optimizer.optimize_p50_us", durations_us["optimizer.optimize"], 0.5, 1.0,
    "us");
  p("optimizer.optimize_p95_us", durations_us["optimizer.optimize"], 0.95, 1.0,
    "us");
  double alternatives = 0, transforms = 0, placements = 0, optimized = 0;
  double log_ratio = 0, ratios = 0;
  for (const StatementRecord& s : statements) {
    if (!s.optimized) continue;
    optimized += 1;
    alternatives += static_cast<double>(s.alternatives);
    transforms += static_cast<double>(s.transforms);
    placements += static_cast<double>(s.groupby_placements);
    if (s.est_cost_ratio > 0) {
      log_ratio += std::log(s.est_cost_ratio);
      ratios += 1;
    }
  }
  auto per_opt = [&](double v) { return optimized > 0 ? v / optimized : 0.0; };
  m.push_back({"optimizer.alternatives_per_query", per_opt(alternatives),
               "count"});
  m.push_back({"optimizer.transforms_per_query", per_opt(transforms), "count"});
  m.push_back({"optimizer.groupby_placements_per_query", per_opt(placements),
               "count"});
  m.push_back({"optimizer.est_cost_vs_traditional",
               ratios > 0 ? std::exp(log_ratio / ratios) : 0.0, "ratio"});
  m.push_back({"optimizer.share", layer_share("optimizer"), "ratio"});

  // analysis
  p("analysis.clamp_p50_us", durations_us["analysis.clamp"], 0.5, 1.0, "us");
  m.push_back({"analysis.share", layer_share("analysis"), "ratio"});

  // exec
  p("exec.lower_p50_us", durations_us["exec.lower"], 0.5, 1.0, "us");
  m.push_back({"exec.open_share", share(open_ns), "ratio"});
  m.push_back({"exec.drain_share",
               share(static_cast<int64_t>(static_cast<double>(drain_ns) *
                                          (1.0 - materialize_part))),
               "ratio"});
  m.push_back({"exec.materialize_share",
               share(static_cast<int64_t>(static_cast<double>(drain_ns) *
                                          materialize_part)),
               "ratio"});
  std::map<std::string, std::pair<int64_t, int64_t>> by_class;
  int64_t op_ns = 0, op_rows = 0, op_count = 0, op_workers = 0, spill = 0;
  for (const StatementRecord& s : statements) {
    for (const OperatorSelf& op : s.operators) {
      by_class[op.op_class].first += op.self_ns;
      by_class[op.op_class].second += op.input_rows;
      op_ns += op.self_ns;
      op_rows += op.input_rows;
      op_workers += op.workers;
      spill += op.spill_pages;
      ++op_count;
    }
  }
  for (const char* cls : kOpClasses) {
    m.push_back({Fmt("exec.op.%s.self_ms", cls),
                 per_read(ToMs(by_class[cls].first)), "ms"});
    m.push_back({Fmt("exec.op.%s.rows_in", cls),
                 per_read(static_cast<double>(by_class[cls].second)), "rows"});
  }
  m.push_back({"exec.ns_per_input_row",
               op_rows > 0 ? static_cast<double>(op_ns) /
                                 static_cast<double>(op_rows)
                           : 0.0,
               "ns"});
  const double traced_wall_s =
      static_cast<double>(traced.end_ns - traced.begin_ns) / 1e9;
  m.push_back({"exec.cpu_per_wall",
               traced_wall_s > 0 ? traced.cpu_s / traced_wall_s : 0.0,
               "ratio"});
  m.push_back({"exec.workers_per_op",
               op_count > 0 ? static_cast<double>(op_workers) /
                                  static_cast<double>(op_count)
                            : 0.0,
               "count"});
  m.push_back({"exec.share", layer_share("exec"), "ratio"});

  // storage
  m.push_back({"storage.spill_pages_per_query",
               per_read(static_cast<double>(spill)), "pages"});

  // harness
  // How late the open-loop writer started its writes, over both phases.
  std::vector<double> lag_ms;
  for (const Phase* phase : {&untraced, &traced}) {
    for (const WriteSample& w : phase->writes) {
      lag_ms.push_back(ToMs(w.start_ns - w.due_ns));
    }
  }
  p("harness.writer_lag_p50_ms", lag_ms, 0.50, 1.0, "ms");
  p("harness.writer_lag_p95_ms", lag_ms, 0.95, 1.0, "ms");
  auto mean_latency = [](const Phase& phase) {
    double total = 0;
    for (const ReadSample& r : phase.reads) total += static_cast<double>(r.end_ns - r.start_ns);
    return phase.reads.empty() ? 0.0 : total / static_cast<double>(phase.reads.size());
  };
  const double untraced_mean = mean_latency(untraced);
  m.push_back({"harness.tracing_overhead",
               untraced_mean > 0 ? mean_latency(traced) / untraced_mean : 0.0,
               "ratio"});
  report->notes.push_back(Fmt(
      "traced phase: %zu reads (%s), %zu writes; untraced phase: %zu reads",
      traced.reads.size(),
      single_client ? "same statements as the untraced phase" : "time-boxed",
      traced.writes.size(), untraced.reads.size()));

  // The layer each workload is built to load.
  auto get = [&](const std::string& name) {
    for (const Metric& metric : m) {
      if (metric.name == name) return metric.value;
    }
    return 0.0;
  };
  if (workload == "olap_hot") {
    const double exec = get("exec.share");
    report->notes.push_back(Fmt("layer check: exec self share %.3f (want >= 0.90): %s",
                                exec, exec >= 0.90 ? "PASS" : "FAIL"));
  } else if (workload == "adhoc_views") {
    const double front = get("sql.share") + get("view.share") + get("optimizer.share");
    report->notes.push_back(Fmt(
        "layer check: sql+view+optimizer self share %.3f (want >= 0.40): %s",
        front, front >= 0.40 ? "PASS" : "FAIL"));
  } else if (workload == "matview_mix") {
    std::vector<double> delta_ms;
    for (const WriteSample& w : traced.writes) {
      if (!w.refresh) delta_ms.push_back(ToMs(w.end_ns - w.due_ns));
    }
    const double write_p50 = Median(delta_ms);
    const double apply_p50 = Median(durations_us["view.apply_delta"]) / 1e3;
    report->notes.push_back(Fmt(
        "layer check: apply_delta p50 %.2f ms of delta write p50 %.2f ms "
        "(want most): %s",
        apply_p50, write_p50,
        write_p50 > 0 && apply_p50 / write_p50 > 0.5 ? "PASS" : "FAIL"));
  }
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "olap_hot") return std::make_unique<OlapHot>(options);
  if (options.workload == "adhoc_views") {
    return std::make_unique<AdhocViews>(options);
  }
  if (options.workload == "matview_mix") {
    return std::make_unique<MatviewMix>(options);
  }
  return nullptr;
}

std::string StampJson(const RunOptions& options, const Workload& workload) {
  return Fmt("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
             "\"trace\": %d, \"smoke\": %d, \"host_cores\": %u, "
             "\"build_type\": \"%s\", \"compiler\": \"%s\", "
             "\"git_sha\": \"%s\", \"params\": %s}",
             JsonEscape(options.workload).c_str(),
             static_cast<unsigned long long>(options.seed), options.seconds,
             options.trace ? 1 : 0, options.smoke ? 1 : 0,
             std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
             PERFBENCH_COMPILER, JsonEscape(options.git_sha).c_str(),
             workload.Params().c_str());
}

/// Checks the backend's plan-cache counters against an LRU replay of the
/// statements it served.
void CheckCacheCounts(const Workload& workload, const Backend& backend,
                      int64_t reads, const char* what, RunReport* report) {
  if (!workload.single_client()) return;
  const CacheCounts expected = ExpectedCacheCounts(
      workload.CacheSequence(reads), PinnedOptions(1).plan_cache_capacity);
  const aggview::PlanCacheStats actual = backend.cache_stats();
  const bool ok = actual.hits == expected.hits && actual.misses == expected.misses;
  report->notes.push_back(Fmt(
      "plan cache (%s): %lld hits, %lld misses; expected %lld, %lld: %s", what,
      static_cast<long long>(actual.hits), static_cast<long long>(actual.misses),
      static_cast<long long>(expected.hits),
      static_cast<long long>(expected.misses), ok ? "ok" : "MISMATCH"));
  if (!ok) {
    report->correct = false;
    report->failures.push_back(std::string("MISMATCH plan-cache counts (") +
                               what + ")");
  }
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"olap_hot", "adhoc_views", "matview_mix"};
}

double ErrorRate(int64_t attempted, int64_t failed) {
  return attempted > 0 ? static_cast<double>(failed) /
                             static_cast<double>(attempted)
                       : 0.0;
}

CacheCounts ExpectedCacheCounts(const std::vector<std::string>& sequence,
                                int64_t capacity) {
  CacheCounts counts;
  std::list<std::string> lru;  // front = most recent
  std::unordered_map<std::string, std::list<std::string>::iterator> index;
  for (const std::string& key : sequence) {
    auto it = index.find(key);
    if (it != index.end()) {
      ++counts.hits;
      lru.splice(lru.begin(), lru, it->second);
      continue;
    }
    ++counts.misses;
    if (capacity <= 0) continue;
    lru.push_front(key);
    index[key] = lru.begin();
    if (static_cast<int64_t>(lru.size()) > capacity) {
      index.erase(lru.back());
      lru.pop_back();
    }
  }
  return counts;
}

Phase RunSerialPhase(Client* client, const std::vector<std::string>& statements,
                     const PhaseLimits& limits, const ResultCheck& check,
                     std::vector<std::string>* failures) {
  Phase phase;
  phase.begin_ns = NowNs();
  const double cpu_begin = ProcessCpuSeconds();
  for (size_t i = 0;; ++i) {
    const int64_t now = NowNs();
    if (limits.exact_reads >= 0) {
      if (static_cast<int64_t>(i) >= limits.exact_reads) break;
    } else if (now >= limits.deadline_ns &&
               static_cast<int64_t>(phase.reads.size()) >= limits.min_reads) {
      break;
    }
    if (now >= limits.hard_deadline_ns) break;
    const std::string& sql = statements[i % statements.size()];
    ++phase.attempted;
    ReadOutcome out = client->Read(sql);
    const int64_t check_begin = NowNs();
    if (!out.status.ok()) {
      ++phase.failed;
      failures->push_back("FAILED " + out.status.ToString() + " | " +
                          OneLine(sql));
    } else if (!check(i, out.result)) {
      ++phase.failed;
      failures->push_back("MISMATCH " + DigestOf(out.result).ToString() +
                          " | " + OneLine(sql));
    } else {
      phase.reads.push_back({out.start_ns, out.prepared_ns, out.end_ns,
                             out.cache_hit, out.view_backed, out.io_pages});
    }
    phase.check_ns += NowNs() - check_begin;
  }
  phase.end_ns = NowNs();
  phase.cpu_s = ProcessCpuSeconds() - cpu_begin;
  return phase;
}

RunReport RunBenchmark(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    report.correct = false;
    report.failures.push_back("unknown workload: " + options.workload);
    return report;
  }
  report.stamp_json = StampJson(options, *workload);

  // Set-up, several times; the last server serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<aggview::Server> server;
  double setup_total_s = 0.0;
  for (int i = 0; i < (options.smoke ? 1 : kMaxSetupRepeats); ++i) {
    if (!options.smoke && i >= kMinSetupRepeats &&
        setup_total_s >= kSetupBudgetS) {
      break;
    }
    server.reset();
    const int64_t begin = NowNs();
    auto built = workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    setup_total_s += setup_s.back();
    if (!built.ok()) {
      report.correct = false;
      report.failures.push_back("set-up failed: " + built.status().ToString());
      return report;
    }
    server = std::move(built).value();
  }
  Status prepared = workload->Prepare(server.get(), &report);
  if (!prepared.ok()) {
    report.correct = false;
    report.failures.push_back("prepare failed: " + prepared.ToString());
    return report;
  }

  const auto seconds_ns = static_cast<int64_t>(options.seconds * 1e9);
  auto limits_for = [&](int64_t length_ns) {
    PhaseLimits limits;
    const int64_t now = NowNs();
    limits.deadline_ns = now + length_ns;
    limits.hard_deadline_ns = now + 3 * length_ns;
    limits.min_reads = options.smoke ? 10 : kMinReads;
    return limits;
  };

  ServerBackend server_backend(server.get());
  workload->WarmUp(&server_backend, &report);
  if (!options.trace) {
    Phase phase = workload->Run(&server_backend, limits_for(seconds_ns), &report);
    CheckCacheCounts(*workload, server_backend,
                     static_cast<int64_t>(phase.attempted), "server", &report);
    workload->Finish(server.get(), &report);
    EndToEndMetrics(phase, setup_s, workload->single_client(), &report);
  } else {
    // Half the run untraced through the Server, then the same statements
    // (single client) or the same length (matview_mix) traced.
    Phase untraced =
        workload->Run(&server_backend, limits_for(seconds_ns / 2), &report);
    CheckCacheCounts(*workload, server_backend, untraced.attempted, "server",
                     &report);
    Tracer tracer;
    TracedServer traced_server(server.get(), nullptr);
    workload->WarmUp(&traced_server, &report);
    traced_server.set_tracer(&tracer);
    PhaseLimits limits = limits_for(seconds_ns / 2);
    if (workload->single_client()) {
      limits.exact_reads = untraced.attempted;
      limits.hard_deadline_ns = NowNs() + 2 * seconds_ns;
    }
    Phase traced = workload->Run(&traced_server, limits, &report);
    CheckCacheCounts(*workload, traced_server, traced.attempted, "traced",
                     &report);
    const std::vector<double> compute_stats_ms =
        workload->ComputeStatsProbe(server.get());
    workload->Finish(server.get(), &report);
    PerLayerMetrics(options.workload, tracer,
                    traced_server.TakeStatementRecords(),
                    traced_server.TakeWriteRecords(), compute_stats_ms,
                    untraced, traced,
                    traced_server.cache_stats(), workload->single_client(),
                    &report);
    if (!options.out_dir.empty()) {
      const std::string path = Fmt("%s/%s-seed%llu-spans.jsonl",
                                   options.out_dir.c_str(),
                                   options.workload.c_str(),
                                   static_cast<unsigned long long>(options.seed));
      if (tracer.WriteJsonLines(path)) {
        report.notes.push_back(Fmt("spans: %zu written to %s",
                                   tracer.spans().size(), path.c_str()));
      }
    }
  }
  for (const std::string& f : report.failures) {
    if (f.rfind("MISMATCH", 0) == 0) report.correct = false;
  }
  return report;
}

}  // namespace perfbench
