// Experiment E14 — multi-query serving throughput through the Server layer.
//
// The serving layer claims two things: (1) the plan cache makes repeated
// statements skip parse/bind/optimize entirely, and (2) concurrent client
// sessions can share one Server — catalog, plan cache, worker pool — and
// still produce byte-identical results while their parallel regions overlap
// in the pool (no admission limit: max_concurrent_queries = 0). This
// experiment measures both.
//
// Axis 1 (serve rows): N concurrent client threads (1, 2, 4, 8), each with
// its own ServerSession, issue a fixed mixed workload — a join-projection
// scan, two grouped aggregations and a point lookup — against one shared
// Server. Every statement goes through the full serving path (Sql() cache
// lookup + Execute()); per-statement latencies feed the p50/p95/p99 columns
// and QPS is total statements over the wall clock of the best repetition.
// Each client cross-checks every result fingerprint against a serial
// baseline and the run fails on divergence.
//
// Axis 2 (prepare rows): the cost of Sql() itself, cold vs hot. Bumping
// every table's epoch forces the next prepare to miss (pay parse -> bind ->
// optimize); the statement immediately after hits the cache. The speedup
// column of prepare_hit is p50(miss) / p50(hit) — the measured repeated-
// query speedup from plan caching.
//
// Repetitions are interleaved per axis value as in E13; latencies pool
// across repetitions for stable percentiles. --smoke shrinks the data and
// the axis for CI; --json emits the machine-readable document persisted as
// BENCH_e14_serving.json.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

struct Workload {
  const char* name;
  const char* sql;
};

constexpr Workload kMix[] = {
    // Scan-heavy join-projection: lineitem probe against supplier.
    {"scan_join",
     "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
     "from lineitem l, supplier s "
     "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0"},
    // Aggregate-heavy: fold every lineitem into per-supplier groups.
    {"aggregate",
     "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
     "from lineitem l group by l.l_suppkey"},
    // Filtered aggregation with many groups.
    {"filtered_agg",
     "select l.l_orderkey, sum(l.l_extendedprice) "
     "from lineitem l where l.l_quantity >= 25 group by l.l_orderkey"},
    // Cheap point statement: dominated by serving overhead, not execution.
    {"point", "select s.s_acctbal from supplier s where s.s_suppkey = 1"},
};
constexpr int kMixSize = 4;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// p in [0, 1]; `sorted` ascending, non-empty.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

std::string Ms(double seconds, int decimals = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, seconds * 1e3);
  return buf;
}

std::string F2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

struct AxisResult {
  double best_wall = 1e300;
  std::vector<double> latencies;  // pooled across reps, seconds
  int64_t queries_per_rep = 0;
};

void Run(bool json, bool smoke) {
  if (!json) {
    Banner("E14", "multi-query serving: plan cache + concurrent sessions");
  }

  ServerOptions options;
  // One worker plus each client's own thread: every client drives its own
  // regions on the shared pool, competing for that one worker.
  options.threads = 2;
  Server server(options);
  {
    auto tables = CreateTpcdSchema(&server.catalog());
    CheckOk(tables.status(), "creating the TPC-D schema");
    DbgenOptions dbgen;
    dbgen.scale_factor = smoke ? 0.002 : 0.01;
    CheckOk(GenerateTpcdData(&server.catalog(), *tables, dbgen),
            "generating TPC-D data");
  }

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int reps = smoke ? 2 : 3;
  const int per_client = smoke ? 2 : 5;  // mix repetitions per client per rep

  // Serial baseline fingerprints: every concurrent result must match.
  std::vector<std::string> baseline;
  {
    ServerSession conn = server.Connect();
    for (const Workload& w : kMix) {
      auto q = conn.Sql(w.sql);
      CheckOk(q.status(), "preparing", w.name);
      auto r = q->Execute();
      CheckOk(r.status(), "executing", w.name);
      baseline.push_back(r->Fingerprint());
    }
  }

  ResultWriter table(json, "E14",
                     {"row", "clients", "queries", "wall_ms", "qps", "p50_ms",
                      "p95_ms", "p99_ms", "hits", "misses", "speedup"});

  // ---- Axis 1: concurrent serving throughput ----
  std::vector<AxisResult> serve(client_counts.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t a = 0; a < client_counts.size(); ++a) {
      const int clients = client_counts[a];
      std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
      std::vector<int> mismatches(static_cast<size_t>(clients), 0);
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      const double wall_start = Now();
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          ServerSession conn = server.Connect();
          for (int i = 0; i < per_client; ++i) {
            for (int w = 0; w < kMixSize; ++w) {
              const double start = Now();
              auto q = conn.Sql(kMix[w].sql);
              CheckOk(q.status(), "preparing", kMix[w].name);
              auto r = q->Execute();
              CheckOk(r.status(), "executing", kMix[w].name);
              lat[static_cast<size_t>(c)].push_back(Now() - start);
              if (r->Fingerprint() != baseline[static_cast<size_t>(w)]) {
                ++mismatches[static_cast<size_t>(c)];
              }
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double wall = Now() - wall_start;
      for (int c = 0; c < clients; ++c) {
        if (mismatches[static_cast<size_t>(c)] != 0) {
          CheckOk(Status::Internal(
                      "client " + std::to_string(c) + ": " +
                      std::to_string(mismatches[static_cast<size_t>(c)]) +
                      " results diverged from the serial baseline"),
                  "serving concurrent clients");
        }
        serve[a].latencies.insert(serve[a].latencies.end(),
                                  lat[static_cast<size_t>(c)].begin(),
                                  lat[static_cast<size_t>(c)].end());
      }
      serve[a].queries_per_rep =
          static_cast<int64_t>(clients) * per_client * kMixSize;
      if (wall < serve[a].best_wall) serve[a].best_wall = wall;
    }
  }

  double qps_one_client = 0.0;
  for (size_t a = 0; a < client_counts.size(); ++a) {
    std::sort(serve[a].latencies.begin(), serve[a].latencies.end());
    const double qps =
        static_cast<double>(serve[a].queries_per_rep) / serve[a].best_wall;
    if (a == 0) qps_one_client = qps;
    table.Row({"serve", Fmt(static_cast<int64_t>(client_counts[a])),
               Fmt(serve[a].queries_per_rep), Ms(serve[a].best_wall),
               F2(qps), Ms(Percentile(serve[a].latencies, 0.50)),
               Ms(Percentile(serve[a].latencies, 0.95)),
               Ms(Percentile(serve[a].latencies, 0.99)), "-", "-",
               F2(qps / qps_one_client)});
  }

  // ---- Axis 2: prepare cost, cache miss vs hit ----
  const int prepare_reps = smoke ? 5 : 20;
  std::vector<double> miss_lat, hit_lat;
  int64_t hits_before = server.cache_stats().hits;
  int64_t misses_before = server.cache_stats().misses;
  {
    ServerSession conn = server.Connect();
    for (int rep = 0; rep < prepare_reps; ++rep) {
      for (const Workload& w : kMix) {
        // Invalidate every cached plan: entries are stamped per table, so
        // bump every table's epoch. The next prepare pays the full
        // parse -> bind -> optimize pipeline.
        for (TableId t = 0; t < server.catalog().num_tables(); ++t) {
          server.catalog().BumpTableEpoch(t);
        }
        double start = Now();
        auto cold = conn.Sql(w.sql);
        miss_lat.push_back(Now() - start);
        CheckOk(cold.status(), "cold-preparing", w.name);
        if (cold->cache_hit()) {
          CheckOk(Status::Internal("hit the plan cache after every table's "
                                   "epoch was bumped"),
                  "cold-preparing", w.name);
        }
        start = Now();
        auto warm = conn.Sql(w.sql);
        hit_lat.push_back(Now() - start);
        CheckOk(warm.status(), "warm-preparing", w.name);
        if (!warm->cache_hit()) {
          CheckOk(Status::Internal("missed the plan cache right after a "
                                   "prepare of the same statement"),
                  "warm-preparing", w.name);
        }
      }
    }
  }
  const int64_t new_hits = server.cache_stats().hits - hits_before;
  const int64_t new_misses = server.cache_stats().misses - misses_before;
  std::sort(miss_lat.begin(), miss_lat.end());
  std::sort(hit_lat.begin(), hit_lat.end());
  const double miss_p50 = Percentile(miss_lat, 0.50);
  const double hit_p50 = Percentile(hit_lat, 0.50);

  table.Row({"prepare_miss", "1", Fmt(static_cast<int64_t>(miss_lat.size())),
             "-", "-", Ms(miss_p50, 4), Ms(Percentile(miss_lat, 0.95), 4),
             Ms(Percentile(miss_lat, 0.99), 4), "0", Fmt(new_misses), "1.00"});
  table.Row({"prepare_hit", "1", Fmt(static_cast<int64_t>(hit_lat.size())),
             "-", "-", Ms(hit_p50, 4), Ms(Percentile(hit_lat, 0.95), 4),
             Ms(Percentile(hit_lat, 0.99), 4), Fmt(new_hits), "0",
             F2(hit_p50 > 0 ? miss_p50 / hit_p50 : 0.0)});

  if (!json) {
    PlanCacheStats stats = server.cache_stats();
    std::printf("\n%s\n", stats.ToString().c_str());
    std::printf(
        "host cores: %u\n"
        "\nExpected shape: serve QPS grows with clients until the host's\n"
        "cores saturate (each client runs its own regions' unclaimed tasks\n"
        "beside the pool's one worker), with p99 growing as clients share\n"
        "cores; results stay byte-identical to serial at every client count\n"
        "(checked). prepare_hit p50 is the cache-served cost of\n"
        "Sql() — its speedup column is the measured repeated-query speedup\n"
        "from skipping parse/bind/optimize.\n",
        std::thread::hardware_concurrency());
  }
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main(int argc, char** argv) {
  aggview::bench::Run(aggview::bench::JsonMode(argc, argv),
                      aggview::bench::HasFlag(argc, argv, "--smoke"));
  return 0;
}
