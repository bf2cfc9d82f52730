#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/runtime_stats.h"
#include "optimizer/plan.h"

namespace perfbench {

/// One timed call into a layer. `name` is "<layer>.<what>" (a string
/// literal); the layer is the prefix before the first dot. Spans of one
/// statement or write share `request`; `parent` is the id of the span that
/// caused this one (0 for a request's root span).
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// The layer a span name belongs to: everything before the first '.'.
std::string LayerOf(const char* span_name);

/// In-memory span store. Recording takes a mutex (spans come from client
/// threads and pool workers); nothing is written out until the run ends.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Every span recorded so far (call once the traced threads have joined).
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span per line to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call: the span starts at construction and is recorded when
/// End() runs or the scope closes. A null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t request,
            int64_t parent);
  ~SpanScope() { End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return span_.id; }
  /// Records the span now (idempotent); returns its duration.
  int64_t End();

 private:
  Tracer* tracer_;
  Span span_;
  bool done_ = false;
};

/// Self time of every span, positionally aligned with `spans`: its duration
/// minus the part of its interval that its direct children cover (the
/// union of the children's intervals clipped to the parent, so overlapping
/// children from parallel workers are not subtracted twice).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time and input of one physical operator of an executed plan.
struct OperatorSelf {
  std::string op_class;
  /// Inclusive wall-equivalent time minus that of its inputs, clamped at 0.
  int64_t self_ns = 0;
  int64_t input_rows = 0;
  int64_t workers = 1;
  int64_t spill_pages = 0;
};

/// Per-operator self times from a RuntimeStatsCollector filled while
/// executing `root`. Operators lowered from one plan node form a chain in
/// registration order (e.g. HashJoin then its Project); the first of a chain
/// reads the topmost operators of the node's child plans. Time counters of
/// morsel-parallel operators sum their workers' clocks, so every inclusive
/// time is divided by the operator's worker count before subtracting.
std::vector<OperatorSelf> OperatorSelfTimes(
    const aggview::PlanPtr& root,
    const aggview::RuntimeStatsCollector& stats);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
