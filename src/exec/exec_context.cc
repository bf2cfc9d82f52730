#include "exec/exec_context.h"

#include <cerrno>
#include <cstdlib>

#include "exec/thread_pool.h"
#include "obs/runtime_stats.h"

namespace aggview {

int EnvKnob(const char* name, int fallback, int max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  // Garbage (no digits, or trailing junk like "8x") falls back rather than
  // silently becoming 0; nonpositive values have no meaning for a thread
  // count or batch size and fall back too. A value too large for long is
  // still a genuine (huge) number and clamps like any other oversized value.
  if (end == env || *end != '\0') return fallback;
  if (errno == ERANGE) return v > 0 ? max_value : fallback;
  if (v <= 0) return fallback;
  if (v > max_value) return max_value;
  return static_cast<int>(v);
}

ExecDefaults ExecDefaults::FromEnv() {
  ExecDefaults d;
  d.batch_size =
      EnvKnob("AGGVIEW_TEST_BATCH_SIZE", d.batch_size, kMaxEnvBatchSize);
  d.threads = EnvKnob("AGGVIEW_TEST_THREADS", d.threads, kMaxEnvThreads);
  return d;
}

ExecContext ExecContext::Default() {
  ExecDefaults d = ExecDefaults::FromEnv();
  ExecContext ctx;
  ctx.batch_size = d.batch_size;
  ctx.threads = d.threads;
  return ctx;
}

ExecRuntime::ExecRuntime(int threads, int64_t morsel_rows,
                         ThreadPool* external_pool)
    : threads_(threads > 0 ? threads : 1),
      morsel_rows_(morsel_rows > 0 ? morsel_rows : 1),
      external_(external_pool) {}

ExecRuntime::~ExecRuntime() = default;

ThreadPool* ExecRuntime::pool() {
  if (external_ != nullptr) return external_;
  if (owned_ == nullptr) owned_ = std::make_unique<ThreadPool>(threads_);
  return owned_.get();
}

OpStats* ExecRuntime::WorkerStats(OpStats* primary) {
  if (primary == nullptr) return nullptr;
  worker_stats_.emplace_back(primary, std::make_unique<OpStats>());
  return worker_stats_.back().second.get();
}

void ExecRuntime::FoldWorkerStats() {
  for (auto& [primary, worker] : worker_stats_) primary->MergeFrom(*worker);
  worker_stats_.clear();
}

}  // namespace aggview
