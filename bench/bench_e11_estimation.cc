// Experiment E11 — estimation accuracy of the statistics substrate.
//
// Cost-based choice is only as good as its cardinality estimates (the
// paper's Section 5 presumes a cost model; this harness quantifies ours).
// For selection, join, and group-by operators over skewed and uniform data,
// the optimizer's row estimate is compared with the true cardinality; the
// reported q-error is max(est/actual, actual/est).
#include <cmath>

#include "analysis/dataflow.h"
#include "bench_util.h"
#include "optimizer/plan_validator.h"

namespace aggview {
namespace bench {
namespace {

std::string FmtQ(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Root-node provable cardinality bounds from the dataflow verifier,
/// rendered compactly.
std::string FmtBounds(const CardBounds& b) {
  char buf[64];
  if (std::isfinite(b.hi)) {
    std::snprintf(buf, sizeof(buf), "[%.0f, %.0f]", b.lo, b.hi);
  } else {
    std::snprintf(buf, sizeof(buf), "[%.0f, inf]", b.lo);
  }
  return buf;
}

/// True when every node's estimate lies inside its provable bounds —
/// PlanBuilder clamps them there, so an escape anywhere is a bug.
bool AllEstimatesInBounds(const PlanPtr& plan, const DataflowAnalysis& flow) {
  if (plan == nullptr) return true;
  const NodeFacts* f = flow.Find(plan.get());
  if (f != nullptr && !EstimateWithinBounds(plan->est.rows, f->card)) {
    return false;
  }
  return AllEstimatesInBounds(plan->left, flow) &&
         AllEstimatesInBounds(plan->right, flow);
}

void Run() {
  Banner("E11", "cardinality estimation accuracy (q-error)");

  // q_root scores the final result cardinality; q_op_max / q_op_geo score
  // every executed operator (EXPLAIN ANALYZE data), so a plan whose root
  // estimate looks fine but which mispredicts an intermediate join is still
  // exposed. `worst_op` names the operator with the largest q-error.
  TablePrinter table({"skew", "operator", "est_rows", "actual", "q_root",
                      "q_op_max", "q_op_geo", "bounds", "est_ok",
                      "worst_op"});
  for (double skew : {0.0, 1.1}) {
    DbgenOptions options;
    options.scale_factor = 0.005;
    options.skew = skew;
    TpcdDb db = MakeTpcdDb(options);

    struct Probe {
      const char* op;
      std::string sql;
    };
    std::vector<Probe> probes = {
        {"selection", "select l.l_orderkey from lineitem l where "
                      "l.l_shipdate < 400"},
        {"selection", "select l.l_orderkey from lineitem l where "
                      "l.l_quantity > 40"},
        {"fk-join", "select l.l_orderkey from lineitem l, orders o where "
                    "l.l_orderkey = o.o_orderkey"},
        {"fanout-join", "select l.l_orderkey from lineitem l, partsupp ps "
                        "where l.l_partkey = ps.ps_partkey"},
        {"group-by", "select l.l_partkey, count(*) from lineitem l group by "
                     "l.l_partkey"},
        {"skewed-eq", "select l.l_orderkey from lineitem l where "
                      "l.l_partkey = 1"},
        {"join+group", "select l.l_suppkey, sum(l.l_extendedprice) from "
                       "lineitem l, supplier s where l.l_suppkey = "
                       "s.s_suppkey and s.s_acctbal > 5000 group by "
                       "l.l_suppkey"},
    };
    for (const Probe& probe : probes) {
      auto query = ParseAndBind(*db.catalog, probe.sql);
      CheckOk(query.status(), "parsing and binding the query");
      auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
      CheckOk(optimized.status(), "optimizing the query");
      RuntimeStatsCollector stats;
      auto result =
          ExecutePlan(optimized->plan, optimized->query,
                      ExecContext::Default().WithStats(&stats));
      CheckOk(result.status(), "executing the plan");
      double est = optimized->plan->est.rows;
      double actual = static_cast<double>(result->rows.size());
      QErrorSummary ops = SummarizeQError(
          CollectNodeQErrors(optimized->plan, optimized->query, stats));
      DataflowAnalysis flow =
          DataflowAnalysis::Analyze(optimized->plan, optimized->query);
      const NodeFacts* root = flow.Find(optimized->plan.get());
      table.Row({skew == 0.0 ? "uniform" : "zipf1.1", probe.op, Fmt(est),
                 Fmt(actual), FmtQ(QError(est, actual)), FmtQ(ops.max_q),
                 FmtQ(ops.mean_q),
                 root != nullptr ? FmtBounds(root->card) : "?",
                 AllEstimatesInBounds(optimized->plan, flow) ? "yes"
                                                             : "VIOLATION",
                 ops.worst_label});
    }
  }
  std::printf(
      "\nExpected shape: q-errors near 1 for selections (equi-depth\n"
      "histograms), FK joins and group-bys; the familiar blowup appears on\n"
      "equality against a skewed column ('skewed-eq' under zipf), where the\n"
      "uniform-frequency assumption — which the paper's cost-based framework\n"
      "inherits from System R — breaks down.\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview

int main() {
  aggview::bench::Run();
  return 0;
}
