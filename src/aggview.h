#ifndef AGGVIEW_AGGVIEW_H_
#define AGGVIEW_AGGVIEW_H_

/// Umbrella header for the AggView library: cost-based optimization of
/// queries with aggregate views (Chaudhuri & Shim, EDBT 1996).
///
/// The front door is the Server (server/server.h), for one embedded caller
/// and many concurrent clients alike:
///   Server server(ServerOptions{.threads = 8});
///   ... populate server.catalog() (tables + stats + data) ...
///   ServerSession conn = server.Connect();   // one per client thread
///   auto q = conn.Sql(sql);           // parse -> bind -> rewrite -> optimize
///   auto result = q->Execute();       // morsel-parallel on 8 threads
///   std::cout << q->Explain();        // or q->ExplainAnalyze()
/// The Server owns the catalog, a plan cache keyed on normalized SQL +
/// optimizer config with per-dependency epoch stamps, a shared worker pool,
/// and FIFO admission control.
///
/// The layers underneath remain directly usable: ParseAndBind (sql/binder.h),
/// OptimizeQueryWithAggViews (optimizer/aggview_optimizer.h), and
/// ExecutePlan(plan, query, ExecContext) (exec/executor.h).
///
/// Exhaustive verification — the small-scope prover (verify/prover.h):
/// ProveSqlTransformation enumerates every database within a bound and
/// asserts the traditional and transformed plans agree byte-for-byte,
/// shrinking any mismatch to a minimal counterexample.

#include "algebra/query.h"
#include "analysis/analyzer.h"
#include "analysis/certificate.h"
#include "analysis/dataflow.h"
#include "analysis/fd.h"
#include "analysis/fuzzer.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "obs/explain.h"
#include "obs/runtime_stats.h"
#include "optimizer/aggview_optimizer.h"
#include "optimizer/plan_validator.h"
#include "optimizer/traditional.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"
#include "transform/coalescing.h"
#include "transform/propagate.h"
#include "transform/pullup.h"
#include "transform/pushdown.h"
#include "verify/enumerate.h"
#include "verify/prover.h"
#include "verify/shrink.h"
#include "verify/skeleton.h"
#include "view/definition_analysis.h"
#include "view/maintenance.h"
#include "view/matview.h"
#include "view/rewriter.h"

#endif  // AGGVIEW_AGGVIEW_H_
