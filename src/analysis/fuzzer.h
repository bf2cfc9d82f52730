#ifndef AGGVIEW_ANALYSIS_FUZZER_H_
#define AGGVIEW_ANALYSIS_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "common/result.h"
#include "optimizer/aggview_optimizer.h"
#include "tpcd/dbgen.h"

namespace aggview {

/// Differential fuzzing of the optimizer stack (the dynamic complement of the
/// static analyzer): seeded random queries in the paper's canonical form are
/// optimized by every optimizer configuration, every plan is analyzed, every
/// plan is executed, and the result multisets are cross-checked. A plan that
/// passes the analyzer but computes a different bag than the traditional
/// plan is exactly the kind of bug the legality certificates exist to catch,
/// so any disagreement is reported as an error carrying the offending SQL.

/// Generates one random aggregate-view query over the emp/dept schema
/// (tpcd/dbgen.h), in canonical form: 0-2 aggregate views (single- or
/// multi-relation blocks, AVG/SUM/MIN/MAX/COUNT/COUNT(*)/MEDIAN, optional
/// HAVING), a top block joining base relations and views, literal and
/// aggregate-output predicates, and an optional top group-by (grouped or
/// scalar). All literals are integers, so results are exactly comparable
/// across plans. Deterministic in `rng`.
/// When `view_ddl` is non-null it receives each generated view's standalone
/// CREATE VIEW statement, in FROM order — the materialized-view fuzz mode
/// re-issues them as CREATE MATERIALIZED VIEW.
std::string GenerateAggViewSql(Rng* rng,
                               std::vector<std::string>* view_ddl = nullptr);

struct FuzzOptions {
  /// Base seed. Query q runs under the derived per-query seed
  /// `seed * 1000003 + q`, which every failure message prints; exporting
  /// AGGVIEW_FUZZ_SEED=<that seed> makes the next run regenerate exactly
  /// that one query (against the same database), so a failure is replayable
  /// without re-running the whole sweep.
  uint64_t seed = 1;
  /// Queries generated and cross-checked. Ignored (forced to 1) when
  /// AGGVIEW_FUZZ_SEED is set.
  int num_queries = 50;
  /// Database shape: small enough to execute hundreds of queries quickly,
  /// large enough for multi-tuple groups and empty-group edge cases.
  int64_t num_employees = 150;
  int64_t num_departments = 8;
  /// Optimize in paranoid mode: the semantic analyzer runs at every DP-table
  /// insertion and every transformation certificate is re-verified.
  bool paranoid = true;
  /// The reference (traditional) plan is re-executed at each of these batch
  /// sizes and every fingerprint must be byte-identical to the default-size
  /// run's — the batch engine must be invisible to query semantics. Size 1
  /// is the row-at-a-time engine's behaviour. Empty disables the check.
  std::vector<int> cross_batch_sizes = {1, 2, 1024};
  /// The reference plan is additionally re-executed at every (threads ×
  /// batch size) combination of these two lists, and every fingerprint must
  /// be byte-identical to the serial reference — morsel-driven parallelism
  /// must be invisible to query semantics at any thread count and any batch
  /// geometry. Either list empty disables the check.
  std::vector<int> cross_thread_counts = {1, 2, 8};
  std::vector<int> cross_thread_batch_sizes = {1, 1024};
  /// Materialize the generated queries' view definitions and differentially
  /// test the whole materialized-view stack against the reference: each
  /// supported inline view (no HAVING, no MEDIAN — rejected ones count as
  /// skips) is re-issued as CREATE MATERIALIZED VIEW, the query is re-bound
  /// and rewritten to answer from the backing tables, and the execution must
  /// be byte-identical to the reference. Then a random insert+delete delta
  /// is applied to emp (exercising incremental maintenance), stale views are
  /// REFRESHed, and the same view-answering plan must again match a base
  /// re-execution. The base data is restored and the views dropped before
  /// the next query. Also enabled by AGGVIEW_FUZZ_MATVIEW=1.
  bool materialize_views = false;
};

/// What a fuzz run did, for test assertions and reporting.
struct FuzzReport {
  int queries_run = 0;
  int queries_with_views = 0;
  int plans_compared = 0;
  /// Reference-plan re-executions at a non-default batch size whose
  /// fingerprint matched the reference fingerprint.
  int batch_size_checks = 0;
  /// Reference-plan re-executions at a (threads, batch size) combination
  /// whose fingerprint matched the serial reference fingerprint.
  int thread_checks = 0;
  int64_t plans_checked = 0;        // analyzer invocations from dp_check
  int64_t certificates_verified = 0;
  /// Runtime dataflow facts checked by the self-verification mode: every
  /// execution runs with a DataflowVerifier installed, so every produced
  /// batch is checked against the statically derived nullability and value
  /// domains and every node's row count against the provable [lo, hi].
  int64_t dataflow_checks = 0;
  /// materialize_views mode: inline view blocks answered from freshly
  /// created backing tables with a reference-identical fingerprint.
  int matview_rewrite_checks = 0;
  /// materialize_views mode: queries whose view-answering plan still matched
  /// the base plan after an insert+delete delta and REFRESH of stale views.
  int matview_delta_checks = 0;
  /// materialize_views mode: generated view definitions the matview layer
  /// rejects by design (HAVING, MEDIAN).
  int matview_skips = 0;
};

/// The options of the DifferentialFuzz suite's pinned shard `shard` (0-9):
/// 52 paranoid queries over 150 + 20 * shard employees.
FuzzOptions DifferentialFuzzShard(int shard);

/// The seed query `q` of a run under `options` is generated from (unless
/// AGGVIEW_FUZZ_SEED replays one query).
uint64_t FuzzQuerySeed(const FuzzOptions& options, int q);

/// The emp/dept database a fuzz run over `options` queries.
Result<EmpDeptTables> CreateFuzzDatabase(const FuzzOptions& options,
                                         Catalog* catalog);

/// The configurations every fuzz query is optimized under: the paper's
/// three algorithm families — traditional two-phase, greedy conservative
/// (no pull-up), the extended two-phase optimizer — plus deep pull-up.
std::vector<OptimizerOptions> FuzzOptimizerConfigs(bool paranoid);

/// Runs the differential fuzz loop. Fails on the first query where any
/// optimizer configuration yields a plan that fails validation/analysis,
/// fails to execute, or executes to a result multiset different from the
/// traditional plan's; the error message contains the SQL, the configuration
/// index, the replayable per-query seed, and the underlying diagnostic. On a
/// fingerprint divergence the failing plan pair is additionally re-proved on
/// the small scope (verify/prover.h) and any counterexample found there is
/// minimized and embedded in the error as a self-contained repro.
Result<FuzzReport> RunDifferentialFuzz(const FuzzOptions& options);

}  // namespace aggview

#endif  // AGGVIEW_ANALYSIS_FUZZER_H_
