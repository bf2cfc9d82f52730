#include "exec/exec_context.h"

#include <cerrno>
#include <cstdlib>
#include <string>

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

const char* ExecBackendName(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kInterpret:
      return "interpret";
    case ExecBackend::kCompiled:
      return "compiled";
  }
  return "interpret";
}

bool ParseExecBackend(const char* text, ExecBackend* out) {
  if (text == nullptr) return false;
  const std::string s(text);
  if (s == "interpret") {
    *out = ExecBackend::kInterpret;
    return true;
  }
  if (s == "compiled") {
    *out = ExecBackend::kCompiled;
    return true;
  }
  return false;
}

ExecBackend BackendEnvKnob(const char* name, ExecBackend fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  // Like EnvKnob, garbage falls back rather than silently picking an engine:
  // only the exact backend names select one.
  ExecBackend parsed = fallback;
  if (!ParseExecBackend(env, &parsed)) return fallback;
  return parsed;
}

const char* BytecodeVerifyModeName(BytecodeVerifyMode mode) {
  switch (mode) {
    case BytecodeVerifyMode::kOff:
      return "off";
    case BytecodeVerifyMode::kOn:
      return "on";
    case BytecodeVerifyMode::kParanoid:
      return "paranoid";
  }
  return "on";
}

bool ParseBytecodeVerifyMode(const char* text, BytecodeVerifyMode* out) {
  if (text == nullptr) return false;
  const std::string s(text);
  if (s == "off") {
    *out = BytecodeVerifyMode::kOff;
    return true;
  }
  if (s == "on") {
    *out = BytecodeVerifyMode::kOn;
    return true;
  }
  if (s == "paranoid") {
    *out = BytecodeVerifyMode::kParanoid;
    return true;
  }
  return false;
}

BytecodeVerifyMode BytecodeVerifyEnvKnob(const char* name,
                                         BytecodeVerifyMode fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  // Garbage falls back rather than silently disabling verification: only
  // the exact mode names select one.
  BytecodeVerifyMode parsed = fallback;
  if (!ParseBytecodeVerifyMode(env, &parsed)) return fallback;
  return parsed;
}

ExecDefaults ExecDefaults::FromEnv() {
  ExecDefaults d;
  d.batch_size =
      EnvKnob("AGGVIEW_TEST_BATCH_SIZE", d.batch_size, kMaxEnvBatchSize);
  d.threads = EnvKnob("AGGVIEW_TEST_THREADS", d.threads, kMaxEnvThreads);
  d.backend = BackendEnvKnob("AGGVIEW_TEST_BACKEND", d.backend);
  d.bytecode_verify =
      BytecodeVerifyEnvKnob("AGGVIEW_VERIFY_BYTECODE", d.bytecode_verify);
  return d;
}

ExecContext ExecContext::Default() {
  ExecDefaults d = ExecDefaults::FromEnv();
  ExecContext ctx;
  ctx.batch_size = d.batch_size;
  ctx.threads = d.threads;
  ctx.backend = d.backend;
  ctx.bytecode_verify = d.bytecode_verify;
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
