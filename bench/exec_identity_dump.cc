// Execution identity dump: everything an executor change must leave as it
// was, one line per execution and one per operator, ready to diff between
// two builds.
//
// Statements: the six tpcd_queries::AllQueries() statements and
// bench_e14's statement mix on TPC-D at SF 0.01, optimized as Server
// prepares them (the aggregate-view optimizer, default options); then the
// DifferentialFuzz suite's 520 queries (10 shards x 52, the shards' own
// seeds and emp/dept databases) under each of the fuzzer's four optimizer
// configurations. Every statement runs at threads {1, 4} x batch size
// {1, 1024}, and each run prints
//
//   <statement> t=<threads> b=<batch> explain=<hash> fp=<hash> rows=<n>
//       reads=<pages> writes=<pages>
//     <op> rows=.. in=.. build=.. probes=.. spill=.. pages=..   (per operator)
//
// where `explain` hashes the optimizer's description plus the plan tree (as
// ServerQuery::Explain renders it) and `fp` the result fingerprint. Timings
// and worker counts are left out: they are the only fields allowed to move.
//
//   ./build/bench/exec_identity_dump > before.txt   # at the parent
//   ./build/bench/exec_identity_dump > after.txt    # at the change
//   diff before.txt after.txt                       # must be empty
//
// The full dump takes well under a minute on 4 cores. --smoke runs SF 0.002
// and the first 4 queries of two fuzz shards (a correctness run for ctest);
// any failing step exits 1 with its cause.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace aggview {
namespace bench {
namespace {

/// FNV-1a, 64-bit: stable across builds and platforms, unlike std::hash.
uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs `optimized` at every threads x batch size point and prints its
/// lines under `label`.
void Dump(const std::string& label, const OptimizedQuery& optimized) {
  std::string explain = optimized.description;
  if (!explain.empty() && explain.back() != '\n') explain += "\n";
  explain += PlanToString(optimized.plan, optimized.query);
  const uint64_t explain_hash = Fnv(explain);
  for (int threads : {1, 4}) {
    for (int batch : {1, 1024}) {
      IoAccountant io;
      RuntimeStatsCollector stats;
      auto result = ExecutePlan(optimized.plan, optimized.query,
                                ExecContext{}
                                    .WithThreads(threads)
                                    .WithBatchSize(batch)
                                    .WithIo(&io)
                                    .WithStats(&stats));
      CheckOk(result.status(), "executing", label.c_str());
      std::printf("%s t=%d b=%d explain=%016" PRIx64 " fp=%016" PRIx64
                  " rows=%zu reads=%" PRId64 " writes=%" PRId64 "\n",
                  label.c_str(), threads, batch, explain_hash,
                  Fnv(result->Fingerprint()), result->rows.size(), io.reads(),
                  io.writes());
      for (const auto& entry : stats.entries()) {
        const OpStats& s = *entry.stats;
        std::printf("  %s rows=%" PRId64 " in=%" PRId64 " build=%" PRId64
                    " probes=%" PRId64 " spill=%" PRId64 " pages=%" PRId64
                    "\n",
                    s.op_name.c_str(), s.rows_produced, s.input_rows,
                    s.hash_build_rows, s.hash_probes, s.spill_pages,
                    s.pages_charged);
      }
    }
  }
}

/// bench_e14_serving's statement mix.
const char* const kServingMix[][2] = {
    {"scan_join",
     "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
     "from lineitem l, supplier s "
     "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0"},
    {"aggregate",
     "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
     "from lineitem l group by l.l_suppkey"},
    {"filtered_agg",
     "select l.l_orderkey, sum(l.l_extendedprice) "
     "from lineitem l where l.l_quantity >= 25 group by l.l_orderkey"},
    {"point", "select s.s_acctbal from supplier s where s.s_suppkey = 1"},
};

void DumpTpcd(bool smoke) {
  DbgenOptions dbgen;
  dbgen.scale_factor = smoke ? 0.002 : 0.01;
  TpcdDb db = MakeTpcdDb(dbgen);
  std::vector<std::pair<std::string, std::string>> statements;
  for (const tpcd_queries::NamedQuery& q : tpcd_queries::AllQueries()) {
    statements.emplace_back("tpcd/" + q.name, q.sql);
  }
  for (const auto& w : kServingMix) {
    statements.emplace_back(std::string("e14/") + w[0], w[1]);
  }
  for (const auto& [label, sql] : statements) {
    auto optimized = PrepareStatement(*db.catalog, sql,
                                      /*use_materialized_views=*/false,
                                      /*use_traditional=*/false,
                                      OptimizerOptions{});
    CheckOk(optimized.status(), "preparing", label.c_str());
    Dump(label, *optimized);
  }
}

/// The DifferentialFuzz suite's shards (tests/fuzz_differential_test.cc).
void DumpFuzz(bool smoke) {
  const std::vector<OptimizerOptions> configs =
      FuzzOptimizerConfigs(/*paranoid=*/false);
  const int shards = smoke ? 2 : 10;
  for (int shard = 0; shard < shards; ++shard) {
    FuzzOptions options = DifferentialFuzzShard(shard);
    if (smoke) options.num_queries = 4;
    Catalog catalog;
    CheckOk(CreateFuzzDatabase(options, &catalog).status(),
            "creating the fuzz database");
    for (int q = 0; q < options.num_queries; ++q) {
      Rng rng(FuzzQuerySeed(options, q));
      const std::string sql = GenerateAggViewSql(&rng);
      const std::string name =
          "fuzz/" + std::to_string(shard) + "/" + std::to_string(q);
      auto bound = ParseAndBind(catalog, sql);
      CheckOk(bound.status(), "binding", name.c_str());
      for (size_t c = 0; c < configs.size(); ++c) {
        const std::string label = name + "/c" + std::to_string(c);
        auto optimized = OptimizeQueryWithAggViews(*bound, configs[c]);
        CheckOk(optimized.status(), "optimizing", label.c_str());
        Dump(label, *optimized);
      }
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main(int argc, char** argv) {
  const bool smoke = aggview::bench::HasFlag(argc, argv, "--smoke");
  aggview::bench::DumpTpcd(smoke);
  aggview::bench::DumpFuzz(smoke);
  return 0;
}
