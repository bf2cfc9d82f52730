#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "metrics.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny data and one set-up, for the benchmark's own tests.
  bool smoke = false;
  /// Where the stamped result record (and, traced, the spans) are written;
  /// empty writes nothing.
  std::string out_dir;
  std::string git_sha = "unknown";
};

/// Everything one run measured and checked.
struct RunReport {
  /// False on any result mismatch against the oracle.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The metrics of the final result line: end-to-end (untraced) or
  /// per-layer (traced).
  std::vector<Metric> metrics;
  /// End-to-end metrics that apply to this workload only (writes,
  /// error_rate); printed, not part of the final line.
  std::vector<Metric> extra;
  /// Human-readable lines: stamp, sample counts, checks, mismatches.
  std::vector<std::string> notes;
  /// SQL (or other description) of every mismatch or failed operation.
  std::vector<std::string> failures;
  /// Host, build, seed and workload parameters as a JSON object.
  std::string stamp_json;
};

/// The workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Runs one workload end to end. Unknown workloads produce a report with
/// correct = false and no metrics.
RunReport RunBenchmark(const RunOptions& options);

/// One read in a measured phase.
struct ReadSample {
  int64_t start_ns = 0;
  int64_t prepared_ns = 0;
  int64_t end_ns = 0;
  bool cache_hit = false;
  bool view_backed = false;
  int64_t io_pages = 0;
};

/// One write of the open-loop writer.
struct WriteSample {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool refresh = false;
};

/// What a measured phase did.
struct Phase {
  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  /// Time the clients spent in the benchmark's own result checks.
  int64_t check_ns = 0;
  double cpu_s = 0.0;
};

/// When a closed-loop phase stops: at `deadline_ns` once `min_reads` reads
/// completed, at `hard_deadline_ns` regardless, or after exactly
/// `exact_reads` statements when that is set (the traced replay).
struct PhaseLimits {
  int64_t deadline_ns = 0;
  int64_t hard_deadline_ns = 0;
  int64_t min_reads = 0;
  int64_t exact_reads = -1;
};

/// Checks one statement's result; returns false on a mismatch. Called
/// outside the latency clock.
using ResultCheck =
    std::function<bool(size_t index, const aggview::QueryResult& result)>;

/// One closed-loop client running statements[i % size] for i = 0, 1, ...
/// until `limits` stop it. Failed statements count in `failed`; mismatches
/// reported by `check` are appended to `failures` with their SQL.
Phase RunSerialPhase(Client* client, const std::vector<std::string>& statements,
                     const PhaseLimits& limits, const ResultCheck& check,
                     std::vector<std::string>* failures);

/// Plan-cache hits and misses an LRU cache of `capacity` entries yields on
/// `sequence` (normalized statement texts) when nothing invalidates it.
struct CacheCounts {
  int64_t hits = 0;
  int64_t misses = 0;
};
CacheCounts ExpectedCacheCounts(const std::vector<std::string>& sequence,
                                int64_t capacity);

/// failed / attempted, 0 when nothing was attempted.
double ErrorRate(int64_t attempted, int64_t failed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
