#ifndef AGGVIEW_OBS_RUNTIME_STATS_H_
#define AGGVIEW_OBS_RUNTIME_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace aggview {

struct PlanNode;

/// Per-operator runtime counters, the raw material of EXPLAIN ANALYZE.
///
/// An operator updates its OpStats only when one was installed (see
/// Operator::set_stats); with no stats sink the executor takes no clock
/// readings and touches no counters, so observability is zero-overhead when
/// off. With a sink, the clock readings and counter updates happen once per
/// *batch* dispatch, so the observer effect shrinks with the batch size.
/// Wall time is read from std::chrono::steady_clock and is *inclusive*: an
/// operator's Next time contains the Next time of its children, the EXPLAIN
/// ANALYZE convention.
struct OpStats {
  /// Operator class name ("TableScan", "HashJoin", ...).
  std::string op_name;

  /// Rows returned from Next (the operator's actual output cardinality).
  int64_t rows_produced = 0;
  /// Non-empty batches returned from Next. An exact-multiple result
  /// cardinality yields exactly rows/batch_size batches — the end-of-stream
  /// call is not counted as a phantom tail batch.
  int64_t batches_produced = 0;
  /// Rows consumed from the operator's input(s): rows examined by a scan,
  /// rows pulled from both sides of a join, rows fed to an aggregate.
  int64_t input_rows = 0;
  /// Number of Next calls (batches_produced + 1 when the stream was
  /// drained).
  int64_t next_calls = 0;

  /// Wall time spent inside Open, resp. cumulative over all Next calls.
  int64_t open_ns = 0;
  int64_t next_ns = 0;

  /// IO pages this operator itself charged to the IoAccountant (reads +
  /// writes; excludes pages charged by children).
  int64_t pages_charged = 0;

  /// Hash operators: rows inserted into the build-side hash table, and the
  /// number of probe lookups performed.
  int64_t hash_build_rows = 0;
  int64_t hash_probes = 0;

  /// Sort / sort-merge / hash-aggregate: pages of simulated spill IO
  /// (the out-of-core passes beyond the first read of the input).
  int64_t spill_pages = 0;

  /// Pipeline instances that contributed to these counters: 1 for serial
  /// execution; N when the operator ran as part of an N-way morsel-parallel
  /// region (each worker clone accumulates into a private OpStats that the
  /// execution's ExecRuntime hands out and merges here after the region's
  /// barrier — the accumulation itself is race-free). With workers > 1 the
  /// time counters sum the workers' clocks, so next_ns is CPU time across
  /// the region, not wall time.
  int64_t workers = 1;

  int64_t total_ns() const { return open_ns + next_ns; }

  /// Folds a worker clone's counters into this (primary) block: counts sum,
  /// workers accumulate. op_name is kept.
  void MergeFrom(const OpStats& other);
};

/// Collects the OpStats of every physical operator of one execution and
/// remembers which plan node each operator was lowered from, so EXPLAIN
/// ANALYZE can annotate the *plan* tree with actual runtime behaviour.
///
/// Lowering registers operators bottom-up; when several operators implement
/// one plan node (e.g. a join plus the projection to the node's output
/// layout), the one registered last is the topmost and defines the node's
/// actual output cardinality.
class RuntimeStatsCollector {
 public:
  struct Entry {
    const PlanNode* node = nullptr;
    std::unique_ptr<OpStats> stats;
  };

  /// Allocates the stats block for one operator lowered from `node`.
  /// The returned pointer stays valid for the collector's lifetime.
  OpStats* Register(const PlanNode* node, std::string op_name) {
    entries_.push_back(Entry{node, std::make_unique<OpStats>()});
    entries_.back().stats->op_name = std::move(op_name);
    return entries_.back().stats.get();
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// Stats of the topmost (last-registered) operator lowered from `node`,
  /// or nullptr when the node was never lowered under this collector.
  const OpStats* ForNode(const PlanNode* node) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->node == node) return it->stats.get();
    }
    return nullptr;
  }

  /// Sum of pages charged by every operator lowered from `node` (the join
  /// and its projection wrapper count as one plan node).
  int64_t PagesForNode(const PlanNode* node) const {
    int64_t pages = 0;
    for (const Entry& e : entries_) {
      if (e.node == node) pages += e.stats->pages_charged;
    }
    return pages;
  }

 private:
  std::vector<Entry> entries_;
};

/// One-line rendering of a stats block (debugging / test diagnostics).
std::string OpStatsToString(const OpStats& s);

}  // namespace aggview

#endif  // AGGVIEW_OBS_RUNTIME_STATS_H_
