// The repository benchmark: one workload per run, through aggview::Server.
//
//   perfbench --workload <olap_hot|adhoc_views|matview_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//             [--smoke]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// report the per-layer metrics and write the spans to --out-dir. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any result disagrees with the oracle, 2 on a
// usage error.
#include <malloc.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

// Freed memory stays in the process. With glibc's defaults the free top of
// the heap goes back to the kernel and large blocks are unmapped as soon as
// they are freed, so every statement faulted its working memory back in,
// and on a shared host the cost of those faults moves with the other
// tenants' memory use.
void KeepFreedMemory() {
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest value glibc accepts
}

void PrintMetrics(const char* title,
                  const std::vector<perfbench::Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + perfbench::JsonEscape(metrics[i].name) + "\": {\"value\": " +
           perfbench::JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           perfbench::JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<olap_hot|adhoc_views|matview_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>] [--smoke]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  KeepFreedMemory();
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 3600) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");

  perfbench::RunReport report = perfbench::RunBenchmark(options);

  std::printf("stamp: %s\n", report.stamp_json.c_str());
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& failure : report.failures) {
    std::printf("%s (seed %llu)\n", failure.c_str(),
                static_cast<unsigned long long>(options.seed));
  }
  PrintMetrics(options.trace ? "per-layer metrics:" : "end-to-end metrics:",
               report.metrics);
  PrintMetrics("workload-specific end-to-end metrics:", report.extra);

  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"stamp\": %s, \"correct\": %s, \"attempted\": %lld, "
                   "\"failed\": %lld, \"metrics\": %s, \"extra\": %s}\n",
                   report.stamp_json.empty() ? "{}" : report.stamp_json.c_str(),
                   report.correct ? "true" : "false",
                   static_cast<long long>(report.attempted),
                   static_cast<long long>(report.failed),
                   MetricsJson(report.metrics).c_str(),
                   MetricsJson(report.extra).c_str());
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
