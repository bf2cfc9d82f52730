#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace aggview {
namespace {

/// Schema + generated data for the paper's emp/dept running example,
/// installed into the server's own catalog.
void PopulateEmpDept(Server* server) {
  auto tables = CreateEmpDeptSchema(&server->catalog());
  ASSERT_OK(tables.status());
  ASSERT_OK(GenerateEmpDeptData(&server->catalog(), *tables, EmpDeptOptions{}));
}

TEST(NormalizeSqlTest, CollapsesCaseAndWhitespace) {
  EXPECT_EQ(NormalizeSql("SELECT  e.sal\nFROM emp e ;"),
            "select e.sal from emp e");
  EXPECT_EQ(NormalizeSql("select e.sal from emp e"),
            NormalizeSql("  SELECT\te.sal\n FROM emp e;  "));
}

TEST(NormalizeSqlTest, StripsLineComments) {
  // A comment is dropped exactly as the lexer drops it; the terminating
  // newline still separates the surrounding tokens.
  EXPECT_EQ(NormalizeSql("SELECT e.sal -- note\nFROM emp e"),
            "select e.sal from emp e");
  // A newline after a comment changes which text is commented out — these
  // parse to different predicates and must not share a cache key.
  EXPECT_NE(NormalizeSql("select e.sal from emp e where a > 1 --x\nand b > 0"),
            NormalizeSql("select e.sal from emp e where a > 1 --x and b > 0"));
  // The fully-commented spelling keys like the text the lexer actually sees.
  EXPECT_EQ(NormalizeSql("select e.sal from emp e --tail comment"),
            "select e.sal from emp e");
  EXPECT_EQ(NormalizeSql("--leading comment\nselect e.sal from emp e"),
            "select e.sal from emp e");
  // '--' inside a string literal is data, not a comment.
  EXPECT_EQ(NormalizeSql("select '--not a comment'"),
            "select '--not a comment'");
}

TEST(NormalizeSqlTest, PreservesStringLiterals) {
  // Case inside a quoted literal is significant; outside it is not.
  EXPECT_EQ(NormalizeSql("SELECT 'Sales'"), "select 'Sales'");
  EXPECT_NE(NormalizeSql("select 'Sales'"), NormalizeSql("select 'sales'"));
  // Whitespace inside a literal survives the collapse.
  EXPECT_EQ(NormalizeSql("select 'a  b'"), "select 'a  b'");
}

TEST(ServerTest, CacheHitSkipsOptimizationAndCountersTrack) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  auto q1 = conn.Sql(Example2Sql());
  ASSERT_OK(q1.status());
  EXPECT_FALSE(q1->cache_hit());

  auto q2 = conn.Sql(Example2Sql());
  ASSERT_OK(q2.status());
  EXPECT_TRUE(q2->cache_hit());

  // A textual re-spelling (case + whitespace) of the same statement hits too.
  std::string respelled =
      "SELECT   e.dno,\tAVG(e.sal)\nFROM emp e, dept d\n"
      "WHERE e.dno = d.dno AND d.budget < 1000000\nGROUP BY e.dno;";
  auto q3 = conn.Sql(respelled);
  ASSERT_OK(q3.status());
  EXPECT_TRUE(q3->cache_hit());

  PlanCacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.size, 1);

  // The shared cached plan produces the same answer as the fresh one.
  auto r1 = q1->Execute();
  ASSERT_OK(r1.status());
  auto r2 = q2->Execute();
  ASSERT_OK(r2.status());
  EXPECT_EQ(r1->Fingerprint(), r2->Fingerprint());
}

TEST(ServerTest, CacheCapacityZeroDisablesCaching) {
  ServerOptions options;
  options.plan_cache_capacity = 0;
  Server server(options);
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  ASSERT_OK(conn.Sql(Example2Sql()));
  auto again = conn.Sql(Example2Sql());
  ASSERT_OK(again.status());
  EXPECT_FALSE(again->cache_hit());
  EXPECT_EQ(server.cache_stats().size, 0);
}

TEST(ServerTest, LruEvictionDropsColdestPlan) {
  ServerOptions options;
  options.plan_cache_capacity = 2;
  Server server(options);
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  const std::string qa = "select e.sal from emp e";
  const std::string qb = "select e.age from emp e";
  const std::string qc = "select d.budget from dept d";

  ASSERT_OK(conn.Sql(qa));
  ASSERT_OK(conn.Sql(qb));
  // Touch qa so qb becomes the LRU victim.
  auto hit = conn.Sql(qa);
  ASSERT_OK(hit.status());
  EXPECT_TRUE(hit->cache_hit());
  // Third distinct plan evicts qb.
  ASSERT_OK(conn.Sql(qc));

  PlanCacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2);

  auto qa_again = conn.Sql(qa);
  ASSERT_OK(qa_again.status());
  EXPECT_TRUE(qa_again->cache_hit());
  auto qb_again = conn.Sql(qb);
  ASSERT_OK(qb_again.status());
  EXPECT_FALSE(qb_again->cache_hit());
}

TEST(ServerTest, StatsEpochBumpInvalidatesCachedPlans) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  auto before = conn.Sql(Example2Sql());
  ASSERT_OK(before.status());
  auto cached = conn.Sql(Example2Sql());
  ASSERT_OK(cached.status());
  ASSERT_TRUE(cached->cache_hit());
  auto baseline = cached->Execute();
  ASSERT_OK(baseline.status());

  const int64_t epoch_before = server.stats_epoch();
  server.catalog().BumpStatsEpoch();
  EXPECT_GT(server.stats_epoch(), epoch_before);

  // A bare global bump leaves every per-table epoch unchanged: the entry's
  // dependency stamps still match, so it survives as a hit and the counter
  // records the invalidation that whole-cache keying would have inflicted.
  auto survived = conn.Sql(Example2Sql());
  ASSERT_OK(survived.status());
  EXPECT_TRUE(survived->cache_hit());
  EXPECT_EQ(server.cache_stats().invalidations, 0);
  EXPECT_EQ(server.cache_stats().avoided_invalidations, 1);

  // Bumping an epoch of a table the plan reads is a real data change: the
  // cached plan must be re-prepared.
  server.catalog().BumpTableEpoch(0);

  auto fresh = conn.Sql(Example2Sql());
  ASSERT_OK(fresh.status());
  EXPECT_FALSE(fresh->cache_hit());
  EXPECT_EQ(server.cache_stats().invalidations, 1);

  // Re-optimizing against unchanged data still gives the same answer.
  auto result = fresh->Execute();
  ASSERT_OK(result.status());
  EXPECT_EQ(result->Fingerprint(), baseline->Fingerprint());

  // And the re-prepared plan is cached under the new epoch.
  auto recached = conn.Sql(Example2Sql());
  ASSERT_OK(recached.status());
  EXPECT_TRUE(recached->cache_hit());
}

TEST(ServerTest, UnrelatedTableMutationKeepsCachedPlan) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  // Example 1's first query reads only emp (table 0); dept is table 1.
  const std::string emp_only =
      "select dno, sum(sal) as dsal from emp group by dno;";
  ASSERT_OK(conn.Sql(emp_only));

  // Mutating dept bumps its table epoch and the global stats epoch, but the
  // emp-only plan's dependency stamps all still match.
  server.catalog().BumpTableEpoch(1);

  auto survived = conn.Sql(emp_only);
  ASSERT_OK(survived.status());
  EXPECT_TRUE(survived->cache_hit());
  EXPECT_EQ(server.cache_stats().invalidations, 0);
  EXPECT_EQ(server.cache_stats().avoided_invalidations, 1);

  // Mutating emp itself invalidates it.
  server.catalog().BumpTableEpoch(0);
  auto fresh = conn.Sql(emp_only);
  ASSERT_OK(fresh.status());
  EXPECT_FALSE(fresh->cache_hit());
  EXPECT_EQ(server.cache_stats().invalidations, 1);
}

TEST(ServerMatViewTest, ViewBackedPlanInvalidatesOnDeltaAndRefresh) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();

  auto ddl = conn.ExecuteDdl(
      "create materialized view dsal (dno, total) as "
      "select e.dno, sum(e.sal) from emp e group by e.dno");
  ASSERT_OK(ddl.status());
  EXPECT_NE(ddl->find("dsal"), std::string::npos);

  const std::string sql =
      "select e.dno, sum(e.sal) from emp e group by e.dno;";
  auto q = conn.Sql(sql);
  ASSERT_OK(q.status());
  EXPECT_TRUE(q->view_backed());
  auto base_bytes = q->Execute();
  ASSERT_OK(base_bytes.status());
  auto hit = conn.Sql(sql);
  ASSERT_OK(hit.status());
  EXPECT_TRUE(hit->cache_hit());

  // A delta through the server maintains the single-relation view in place;
  // the emp table epoch and the view's content epoch both move, so the
  // cached view-backed plan re-prepares instead of serving stale bytes.
  TableDelta delta;
  delta.table = 0;  // emp
  delta.inserts = {{Value::Int(9001), Value::Int(1), Value::Real(1234.5),
                    Value::Int(30)}};
  MaintenanceReport report;
  ASSERT_OK(conn.ApplyDelta(delta, &report));
  EXPECT_EQ(report.views_maintained, 1);

  auto fresh = conn.Sql(sql);
  ASSERT_OK(fresh.status());
  EXPECT_FALSE(fresh->cache_hit());
  EXPECT_TRUE(fresh->view_backed());
  auto maintained = fresh->Execute();
  ASSERT_OK(maintained.status());

  // The maintained view answers with exactly the bytes a view-less server
  // computes from base tables after the same delta.
  Server plain{[] {
    ServerOptions o = ServerOptions::Default();
    o.use_materialized_views = false;
    return o;
  }()};
  PopulateEmpDept(&plain);
  ASSERT_OK(plain.ApplyDelta(delta, nullptr));
  ServerSession plain_conn = plain.Connect();
  auto plain_q = plain_conn.Sql(sql);
  ASSERT_OK(plain_q.status());
  EXPECT_FALSE(plain_q->view_backed());
  auto plain_bytes = plain_q->Execute();
  ASSERT_OK(plain_bytes.status());
  EXPECT_EQ(maintained->Fingerprint(), plain_bytes->Fingerprint());

  // REFRESH bumps the view's content epoch: the "v:dsal" dependency stamp
  // no longer matches and the plan re-prepares again.
  auto recached = conn.Sql(sql);
  ASSERT_OK(recached.status());
  EXPECT_TRUE(recached->cache_hit());
  ASSERT_OK(conn.ExecuteDdl("refresh materialized view dsal"));
  auto after_refresh = conn.Sql(sql);
  ASSERT_OK(after_refresh.status());
  EXPECT_FALSE(after_refresh->cache_hit());
  EXPECT_TRUE(after_refresh->view_backed());
  auto refreshed = after_refresh->Execute();
  ASSERT_OK(refreshed.status());
  EXPECT_EQ(refreshed->Fingerprint(), plain_bytes->Fingerprint());
}

TEST(ServerMatViewTest, JoinViewMaintainedAndCachedPlanReprepares) {
  // A delta on emp is merged into an emp ⋈ dept view: the view stays fresh,
  // the cached view-backed plan re-prepares (the backing epoch moved), and
  // the maintained content answers with the bytes of a view-less server.
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();
  ASSERT_OK(conn.ExecuteDdl(
      "create materialized view dept_pay (dno, total) as "
      "select e.dno, sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno"));

  const std::string sql =
      "select e.dno, sum(e.sal) from emp e, dept d "
      "where e.dno = d.dno group by e.dno;";
  auto answered = conn.Sql(sql);
  ASSERT_OK(answered.status());
  EXPECT_TRUE(answered->view_backed());
  auto cached = conn.Sql(sql);
  ASSERT_OK(cached.status());
  EXPECT_TRUE(cached->cache_hit());

  TableDelta delta;
  delta.table = 0;  // emp
  delta.inserts = {{Value::Int(9001), Value::Int(1), Value::Real(10.0),
                    Value::Int(30)}};
  delta.deletes = {0, 3};
  MaintenanceReport report;
  ASSERT_OK(conn.ApplyDelta(delta, &report));
  EXPECT_EQ(report.views_maintained, 1);
  EXPECT_EQ(report.views_marked_stale, 0);
  EXPECT_TRUE(server.catalog().IsViewFresh(
      *server.catalog().FindView("dept_pay")));

  auto reprepared = conn.Sql(sql);
  ASSERT_OK(reprepared.status());
  EXPECT_FALSE(reprepared->cache_hit());
  EXPECT_TRUE(reprepared->view_backed());
  auto maintained = reprepared->Execute();
  ASSERT_OK(maintained.status());

  Server plain{[] {
    ServerOptions o = ServerOptions::Default();
    o.use_materialized_views = false;
    return o;
  }()};
  PopulateEmpDept(&plain);
  ASSERT_OK(plain.ApplyDelta(delta, nullptr));
  auto plain_q = plain.Connect().Sql(sql);
  ASSERT_OK(plain_q.status());
  EXPECT_FALSE(plain_q->view_backed());
  auto plain_bytes = plain_q->Execute();
  ASSERT_OK(plain_bytes.status());
  EXPECT_EQ(maintained->Fingerprint(), plain_bytes->Fingerprint());
  ExpectMatchesRefresh(&server.catalog(), "dept_pay");
}

TEST(ServerMatViewTest, ConcurrentRefreshAndReadsStayConsistent) {
  // Readers execute view-backed and base plans while a writer thread applies
  // deltas and refreshes; the shared catalog lock must keep every observed
  // result internally consistent (no torn backing tables, no crashes).
  Server server;
  PopulateEmpDept(&server);
  ServerSession ddl_conn = server.Connect();
  ASSERT_OK(ddl_conn.ExecuteDdl(
      "create materialized view dsal (dno, total) as "
      "select e.dno, sum(e.sal) from emp e group by e.dno"));

  constexpr int kReaders = 4;
  constexpr int kRoundsPerReader = 25;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &failed] {
      ServerSession conn = server.Connect();
      for (int i = 0; i < kRoundsPerReader && !failed.load(); ++i) {
        auto q = conn.Sql(
            "select e.dno, sum(e.sal) from emp e group by e.dno;");
        if (!q.ok() || !q->Execute().ok()) {
          failed.store(true);
          break;
        }
      }
    });
  }
  std::thread writer([&server, &failed] {
    ServerSession conn = server.Connect();
    for (int i = 0; i < 20 && !failed.load(); ++i) {
      TableDelta delta;
      delta.table = 0;  // emp
      delta.inserts = {{Value::Int(20000 + i), Value::Int(1 + (i % 3)),
                        Value::Real(100.0 + i), Value::Int(30)}};
      if (!conn.ApplyDelta(delta, nullptr).ok()) {
        failed.store(true);
        break;
      }
      if (i % 5 == 0 &&
          !conn.ExecuteDdl("refresh materialized view dsal").ok()) {
        failed.store(true);
        break;
      }
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  ASSERT_FALSE(failed.load());

  // After the dust settles, the view is either fresh (maintained) and must
  // agree with base bytes, byte for byte.
  ASSERT_OK(ddl_conn.ExecuteDdl("refresh materialized view dsal"));
  ServerSession conn = server.Connect();
  const std::string sql =
      "select e.dno, sum(e.sal) from emp e group by e.dno;";
  auto viewed = conn.Sql(sql);
  ASSERT_OK(viewed.status());
  EXPECT_TRUE(viewed->view_backed());
  auto viewed_bytes = viewed->Execute();
  ASSERT_OK(viewed_bytes.status());

  Server plain{[] {
    ServerOptions o = ServerOptions::Default();
    o.use_materialized_views = false;
    return o;
  }()};
  PopulateEmpDept(&plain);
  // Nothing mutated plain's emp; replay the writer's inserts.
  for (int i = 0; i < 20; ++i) {
    TableDelta delta;
    delta.table = 0;
    delta.inserts = {{Value::Int(20000 + i), Value::Int(1 + (i % 3)),
                      Value::Real(100.0 + i), Value::Int(30)}};
    ASSERT_OK(plain.ApplyDelta(delta, nullptr));
  }
  ServerSession plain_conn = plain.Connect();
  auto plain_q = plain_conn.Sql(sql);
  ASSERT_OK(plain_q.status());
  auto plain_bytes = plain_q->Execute();
  ASSERT_OK(plain_bytes.status());
  EXPECT_EQ(viewed_bytes->Fingerprint(), plain_bytes->Fingerprint());
}

TEST(ServerTest, MutableTableAccessBumpsEpoch) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();
  ASSERT_OK(conn.Sql(Example2Sql()));

  // Any mutable catalog touch is conservatively treated as a data change.
  ASSERT_GT(server.catalog().num_tables(), 0);
  const int64_t before = server.stats_epoch();
  server.catalog().mutable_table(0);
  EXPECT_GT(server.stats_epoch(), before);

  auto q = conn.Sql(Example2Sql());
  ASSERT_OK(q.status());
  EXPECT_FALSE(q->cache_hit());
}

TEST(ServerTest, ConcurrentClientsMatchSerialExecution) {
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  PopulateEmpDept(&server);

  const std::vector<std::string> mix = {
      Example1Sql(), Example2Sql(), "select e.sal from emp e",
      "select d.budget from dept d"};

  // Serial baseline: one session runs the mix once.
  std::vector<std::string> serial;
  {
    ServerSession conn = server.Connect();
    for (const std::string& sql : mix) {
      auto q = conn.Sql(sql);
      ASSERT_OK(q.status());
      auto r = q->Execute();
      ASSERT_OK(r.status());
      serial.push_back(r->Fingerprint());
    }
  }

  constexpr int kClients = 4;
  constexpr int kReps = 3;
  std::vector<std::vector<std::string>> fingerprints(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServerSession conn = server.Connect();
      for (int rep = 0; rep < kReps; ++rep) {
        for (const std::string& sql : mix) {
          auto q = conn.Sql(sql);
          if (!q.ok()) {
            errors[c] = q.status().ToString();
            return;
          }
          auto r = q->Execute();
          if (!r.ok()) {
            errors[c] = r.status().ToString();
            return;
          }
          fingerprints[c].push_back(r->Fingerprint());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
    ASSERT_EQ(fingerprints[c].size(), static_cast<size_t>(kReps * mix.size()));
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < mix.size(); ++i) {
        EXPECT_EQ(fingerprints[c][rep * mix.size() + i], serial[i])
            << "client " << c << " rep " << rep << " query " << i
            << " diverged from serial execution";
      }
    }
  }

  // Every statement after the first appearance of its text was a cache hit.
  PlanCacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, static_cast<int64_t>(mix.size()));
  EXPECT_EQ(stats.hits,
            static_cast<int64_t>(mix.size() * (1 + kClients * kReps) -
                                 mix.size()));
}

TEST(ServerTest, AdmissionControlLimitsConcurrencyFifo) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  Server server(options);
  PopulateEmpDept(&server);

  constexpr int kClients = 4;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServerSession conn = server.Connect();
      auto q = conn.Sql(Example2Sql());
      if (!q.ok()) {
        errors[c] = q.status().ToString();
        return;
      }
      for (int rep = 0; rep < 3; ++rep) {
        auto r = q->Execute();
        if (!r.ok()) {
          errors[c] = r.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }

  EXPECT_EQ(server.admission_peak_running(), 1);
  EXPECT_EQ(server.admission_total(), kClients * 3);
}

TEST(ServerTest, QueryOutlivingServerFailsCleanly) {
  auto server = std::make_unique<Server>();
  PopulateEmpDept(server.get());
  ServerSession conn = server->Connect();
  auto q = conn.Sql(Example2Sql());
  ASSERT_OK(q.status());

  server.reset();

  auto result = q->Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("destroyed"), std::string::npos)
      << result.status().ToString();
  auto analyzed = q->ExplainAnalyze();
  ASSERT_FALSE(analyzed.ok());

  auto prepared = conn.Sql(Example2Sql());
  ASSERT_FALSE(prepared.ok());
  EXPECT_NE(prepared.status().ToString().find("destroyed"), std::string::npos)
      << prepared.status().ToString();
}

TEST(ServerTest, MovedFromQueryFailsCleanly) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();
  auto q = conn.Sql(Example2Sql());
  ASSERT_OK(q.status());

  ServerQuery moved = std::move(*q);
  auto result = q->Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("moved-from"), std::string::npos)
      << result.status().ToString();
  ASSERT_OK(moved.Execute());

  // Introspection stays valid on the moved-from query: the move transfers
  // the right to execute but shares the immutable plan.
  EXPECT_EQ(q->Explain(), moved.Explain());
  EXPECT_FALSE(q->Explain().empty());
  EXPECT_EQ(q->description(), moved.description());
  EXPECT_NE(q->plan(), nullptr);
}

TEST(ServerTest, OutOfRangeLiteralFailsThePrepareAndServingContinues) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();
  auto bad =
      conn.Sql("select e.dno from emp e where e.sal > 99999999999999999999");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find("99999999999999999999 at offset 38"),
            std::string::npos)
      << bad.status().ToString();

  // The same connection keeps serving, including a predicate whose INT64
  // product overflows (computed in DOUBLE: every eno > 0 passes).
  auto overflow = conn.Sql(
      "select count(*) from emp e where e.eno * 9223372036854775807 > 0");
  ASSERT_OK(overflow.status());
  auto counted = overflow->Execute();
  ASSERT_OK(counted);
  auto positive = conn.Sql("select count(*) from emp e where e.eno > 0");
  ASSERT_OK(positive.status());
  auto want = positive->Execute();
  ASSERT_OK(want);
  EXPECT_EQ(counted->Fingerprint(), want->Fingerprint());
}

TEST(ServerTest, SteadyStateServingDoesNotBumpEpoch) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession conn = server.Connect();
  auto warm = conn.Sql(Example2Sql());
  ASSERT_OK(warm.status());
  ASSERT_OK(warm->Execute());

  // Serving (prepare + execute, hits and misses alike) is read-only on the
  // catalog: the epoch must not move, or the cache would degrade to 0% hits.
  const int64_t epoch = server.stats_epoch();
  for (int i = 0; i < 3; ++i) {
    auto q = conn.Sql(Example2Sql());
    ASSERT_OK(q.status());
    EXPECT_TRUE(q->cache_hit());
    ASSERT_OK(q->Execute());
  }
  auto miss = conn.Sql("select e.age from emp e");
  ASSERT_OK(miss.status());
  EXPECT_FALSE(miss->cache_hit());
  ASSERT_OK(miss->Execute());
  EXPECT_EQ(server.stats_epoch(), epoch);
}

TEST(ServerTest, PerConnectionTraditionalKeysTheCache) {
  Server server;
  PopulateEmpDept(&server);
  ServerSession extended = server.Connect();
  ServerSession traditional = server.Connect();
  traditional.set_use_traditional(true);
  EXPECT_FALSE(extended.use_traditional());

  // The paper's view query whose cheapest plan pulls a relation up into the
  // view: the two optimizers choose different plans for the same text.
  const std::string sql = R"sql(
create view c (dno, asal) as
  select e2.dno, avg(e2.sal)
  from emp e2, dept d2
  where e2.dno = d2.dno and d2.budget < 1000000
  group by e2.dno;
select e1.sal
from emp e1, c
where e1.dno = c.dno and e1.age < 22 and e1.sal > c.asal
)sql";
  auto bound = ParseAndBind(server.catalog(), sql);
  ASSERT_OK(bound.status());
  auto want_extended = OptimizeQueryWithAggViews(*bound, OptimizerOptions{});
  ASSERT_OK(want_extended.status());
  auto want_traditional = OptimizeTraditional(*bound);
  ASSERT_OK(want_traditional.status());
  ASSERT_NE(want_extended->description, want_traditional->description);

  // One miss per connection: the toggle keys a different cache entry, so
  // neither optimizer's plan shadows the other's.
  auto e1 = extended.Sql(sql);
  ASSERT_OK(e1.status());
  EXPECT_FALSE(e1->cache_hit());
  auto t1 = traditional.Sql(sql);
  ASSERT_OK(t1.status());
  EXPECT_FALSE(t1->cache_hit());
  // Then one hit per connection, each on its own optimizer's plan.
  auto e2 = extended.Sql(sql);
  ASSERT_OK(e2.status());
  EXPECT_TRUE(e2->cache_hit());
  auto t2 = traditional.Sql(sql);
  ASSERT_OK(t2.status());
  EXPECT_TRUE(t2->cache_hit());

  PlanCacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(e2->description(), want_extended->description);
  EXPECT_EQ(t2->description(), want_traditional->description);

  auto re = e2->Execute();
  ASSERT_OK(re.status());
  auto rt = t2->Execute();
  ASSERT_OK(rt.status());
  EXPECT_EQ(re->Fingerprint(), rt->Fingerprint());
}

}  // namespace
}  // namespace aggview
