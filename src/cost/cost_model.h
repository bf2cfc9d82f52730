#ifndef AGGVIEW_COST_COST_MODEL_H_
#define AGGVIEW_COST_COST_MODEL_H_

#include <cstdint>

namespace aggview {

/// Physical join algorithms the optimizer chooses among.
enum class JoinAlgo {
  kBlockNestedLoop,  // any predicate
  kHash,             // equi-join only (Grace hash when out of core)
};

const char* JoinAlgoName(JoinAlgo algo);

/// IO-only cost model (paper Section 5: "The optimization algorithm that we
/// present minimizes IO cost"). All costs are in pages; the page geometry is
/// shared with the storage accountant (io_accountant.h), so estimated and
/// measured IO are directly comparable.
///
/// Conventions used when composing plan costs (see optimizer/plan.cc):
///  - A node's cost includes its children's costs plus its *local* cost.
///  - Every join and aggregation charges for reading its inputs (the
///    System-R convention of disk-resident intermediates), plus spill /
///    pass / sort extras. This is what makes the paper's trade-offs
///    measurable: an early group-by pays its own input read once but
///    shrinks every later join's input read.
///  - Block-nested-loop re-reads its inner input once per outer block; a
///    non-leaf inner is materialized first (one write of its pages).
///  - The executor charges the same formulas on actual cardinalities.
class CostModel {
 public:
  /// Pages occupied by `rows` rows of `row_width` bytes (fractional rows are
  /// allowed: estimates stay smooth for the DP comparisons).
  static double Pages(double rows, int64_t row_width);

  /// Full scan of a base table.
  static double ScanCost(double pages);

  /// One write (or read) pass over a materialized intermediate.
  static double MaterializeCost(double pages) { return pages; }

  /// Local cost of block-nested-loop: one read of the outer, plus one read
  /// of the inner per block of (B-2) outer pages (at least one pass).
  static double BnlLocalCost(double outer_pages, double inner_pages);

  /// Local cost of (Grace) hash join: one read of each input, plus a
  /// partition write + read of both when the smaller input exceeds memory.
  static double HashJoinLocalCost(double left_pages, double right_pages);

  /// External merge sort: 2 * P per pass; 0 when P fits in memory.
  static double SortCost(double pages);

  /// Local cost of hash aggregation: free when the input fits in memory
  /// (the aggregate streams from the pipeline below), two extra passes when
  /// it spills. The asymmetry against joins (which always read their
  /// inputs) is deliberate: it reproduces the paper's two-sided trade —
  /// early aggregation wins by shrinking later join reads, and loses when
  /// its own input spills.
  static double HashAggLocalCost(double input_pages);
};

}  // namespace aggview

#endif  // AGGVIEW_COST_COST_MODEL_H_
