#ifndef AGGVIEW_BENCH_BENCH_UTIL_H_
#define AGGVIEW_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggview.h"

#ifndef AGGVIEW_BENCH_BUILD_TYPE
#define AGGVIEW_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AGGVIEW_BENCH_COMPILER
#define AGGVIEW_BENCH_COMPILER "unknown"
#endif
#ifndef AGGVIEW_BENCH_SOURCE_DIR
#define AGGVIEW_BENCH_SOURCE_DIR ""
#endif

namespace aggview {
namespace bench {

/// Fixed-width table printer for experiment output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 14)
      : headers_(std::move(headers)), width_(width) {
    for (const std::string& h : headers_) {
      std::printf("%-*s", width_, h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%-*s", width_, std::string(static_cast<size_t>(width_) - 2, '-').c_str());
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) {
      std::printf("%-*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}
inline std::string Fmt(int64_t v) { return std::to_string(v); }

/// True when `flag` is one of the command-line arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// True when the experiment was invoked with --json: emit one machine-
/// readable JSON document instead of the banner + fixed-width table, so
/// plotting and regression scripts can consume the numbers directly.
inline bool JsonMode(int argc, char** argv) {
  return HasFlag(argc, argv, "--json");
}

/// Escapes `s` for use inside a JSON string per RFC 8259: `"` and `\` get a
/// backslash, the named control escapes are used where they exist, and every
/// other control character below 0x20 becomes a \u00XX sequence (via an
/// unsigned cast, so no sign-extension garbage). Bytes >= 0x80 pass through
/// untouched (the document is UTF-8).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; continue;
      case '\\': out += "\\\\"; continue;
      case '\b': out += "\\b"; continue;
      case '\f': out += "\\f"; continue;
      case '\n': out += "\\n"; continue;
      case '\r': out += "\\r"; continue;
      case '\t': out += "\\t"; continue;
      default: break;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// True when `cell` is a valid JSON number token (RFC 8259 grammar:
/// optional minus, integer part without leading zeros, optional fraction,
/// optional exponent). Deliberately stricter than strtod, which also accepts
/// "inf", "nan", hex like "0x1f" and leading-zero forms like "007" — all of
/// which are malformed JSON when emitted unquoted.
inline bool IsJsonNumber(const std::string& cell) {
  const char* p = cell.c_str();
  if (*p == '-') ++p;
  if (*p == '0') {
    ++p;
  } else if (*p >= '1' && *p <= '9') {
    while (*p >= '0' && *p <= '9') ++p;
  } else {
    return false;
  }
  if (*p == '.') {
    ++p;
    if (*p < '0' || *p > '9') return false;
    while (*p >= '0' && *p <= '9') ++p;
  }
  if (*p == 'e' || *p == 'E') {
    ++p;
    if (*p == '+' || *p == '-') ++p;
    if (*p < '0' || *p > '9') return false;
    while (*p >= '0' && *p <= '9') ++p;
  }
  return *p == '\0';
}

/// Renders `cell` as a JSON value: unquoted when it is a valid JSON number
/// token, an escaped string otherwise.
inline std::string JsonLiteral(const std::string& cell) {
  if (IsJsonNumber(cell)) return cell;
  const std::string escaped = JsonEscape(cell);
  return "\"" + escaped + "\"";
}

/// Streams experiment rows as a JSON document:
///   {"experiment": "E13", "rows": [{"col": value, ...}, ...]}
/// Cells that are valid JSON number tokens are emitted unquoted; everything
/// else is emitted as an escaped string. The document closes when the
/// writer is destroyed.
class JsonWriter {
 public:
  JsonWriter(std::string experiment, std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    std::printf("{\"experiment\": \"%s\", \"host\": %s, \"rows\": [",
                JsonEscape(experiment).c_str(), HostJson().c_str());
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  ~JsonWriter() { std::printf("]}\n"); }

  void Row(const std::vector<std::string>& cells) {
    std::printf("%s\n  {", first_ ? "" : ",");
    first_ = false;
    for (size_t i = 0; i < headers_.size() && i < cells.size(); ++i) {
      std::printf("%s\"%s\": %s", i == 0 ? "" : ", ",
                  JsonEscape(headers_[i]).c_str(),
                  JsonLiteral(cells[i]).c_str());
    }
    std::printf("}");
  }

 private:
  /// The machine, build and source a document's numbers were measured on:
  /// logical cores, CMake build type, compiler and SourceStamp()
  /// (bench/CMakeLists.txt passes the build type, compiler and source
  /// directory; other includers report "unknown").
  static std::string HostJson() {
    return "{\"cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"build_type\": \"" + JsonEscape(AGGVIEW_BENCH_BUILD_TYPE) +
           "\", \"compiler\": \"" + JsonEscape(AGGVIEW_BENCH_COMPILER) +
           "\", \"git_sha\": \"" + JsonEscape(SourceStamp()) + "\"}";
  }

  /// The rule perfbench/run.py stamps its results with: "git:<commit>" when
  /// the source directory is a git checkout, else "tree:<digest>", an
  /// FNV-1a digest of the paths and contents of every file under its src/
  /// and bench/ (sorted by path); "unknown" without a source directory.
  static std::string SourceStamp() {
    namespace fs = std::filesystem;
    const std::string root = AGGVIEW_BENCH_SOURCE_DIR;
    if (root.empty()) return "unknown";
    const std::string cmd = "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      std::string sha;
      char buf[128];
      while (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha += buf;
      const bool ok = pclose(pipe) == 0;
      while (!sha.empty() && std::isspace(static_cast<unsigned char>(
                                 sha.back()))) {
        sha.pop_back();
      }
      if (ok && !sha.empty()) return "git:" + sha;
    }
    std::vector<fs::path> files;
    for (const char* top : {"src", "bench"}) {
      std::error_code ec;
      for (fs::recursive_directory_iterator it(fs::path(root) / top, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file()) files.push_back(it->path());
      }
    }
    std::sort(files.begin(), files.end());
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string& bytes) {
      for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
      }
    };
    for (const fs::path& f : files) {
      mix(fs::relative(f, root).generic_string());
      std::ifstream in(f, std::ios::binary);
      mix(std::string(std::istreambuf_iterator<char>(in), {}));
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string("tree:") + digest;
  }

  std::vector<std::string> headers_;
  bool first_ = true;
};

/// Routes rows to a TablePrinter (human mode) or a JsonWriter (--json).
/// Experiments construct one of these, emit rows, and stay agnostic of the
/// output format.
class ResultWriter {
 public:
  ResultWriter(bool json, const std::string& experiment,
               std::vector<std::string> headers, int width = 14) {
    if (json) {
      json_ = std::make_unique<JsonWriter>(experiment, std::move(headers));
    } else {
      table_ = std::make_unique<TablePrinter>(std::move(headers), width);
    }
  }

  void Row(const std::vector<std::string>& cells) {
    if (json_ != nullptr) {
      json_->Row(cells);
    } else {
      table_->Row(cells);
    }
  }

 private:
  std::unique_ptr<JsonWriter> json_;
  std::unique_ptr<TablePrinter> table_;
};

/// The minimum and the median of `samples` (the upper median for an even
/// count); {0, 0} when empty. Benches report both over their repetitions:
/// the min is the least-disturbed run, the median the typical one.
struct MinMedian {
  double min = 0.0;
  double median = 0.0;
};
inline MinMedian MinAndMedian(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  return {samples.front(), samples[samples.size() / 2]};
}

/// MinAndMedian's halves as plain functions, the form google-benchmark's
/// ComputeStatistics takes: e9 and e12 report both over their repetitions.
inline double MinOf(const std::vector<double>& samples) {
  return MinAndMedian(samples).min;
}
inline double MedianOf(const std::vector<double>& samples) {
  return MinAndMedian(samples).median;
}

/// Exits the bench when `status` is an error, printing what was being done
/// (`action`, on `subject` when given) and the failing Status to stderr — a
/// bench failure states its cause instead of a bare abort(). Exit code 1;
/// _Exit skips static destructors, so a failure on one client thread cannot
/// race the other threads' teardown. Allocation-free on success, so timed
/// loops may call it.
inline void CheckOk(const Status& status, const char* action,
                    const char* subject = "") {
  if (status.ok()) return;
  std::fflush(stdout);
  std::fprintf(stderr, "bench failed while %s%s%s: %s\n", action,
               *subject != '\0' ? " " : "", subject,
               status.ToString().c_str());
  std::_Exit(1);
}

/// Banner naming the experiment and its paper artifact.
inline void Banner(const char* id, const char* what) {
  std::printf("\n=== %s: %s ===\n", id, what);
}

/// emp/dept catalog + data (Examples 1 and 2).
struct EmpDeptDb {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  EmpDeptTables tables;
};

inline EmpDeptDb MakeEmpDeptDb(const EmpDeptOptions& options) {
  EmpDeptDb db;
  auto tables = CreateEmpDeptSchema(db.catalog.get());
  CheckOk(tables.status(), "creating the emp/dept schema");
  db.tables = *tables;
  CheckOk(GenerateEmpDeptData(db.catalog.get(), db.tables, options),
          "generating emp/dept data");
  return db;
}

struct TpcdDb {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  TpcdTables tables;
};

inline TpcdDb MakeTpcdDb(const DbgenOptions& options) {
  TpcdDb db;
  auto tables = CreateTpcdSchema(db.catalog.get());
  CheckOk(tables.status(), "creating the TPC-D schema");
  db.tables = *tables;
  CheckOk(GenerateTpcdData(db.catalog.get(), db.tables, options),
          "generating TPC-D data");
  return db;
}

/// Optimizes + executes under one configuration; returns estimated cost and
/// measured IO, plus the per-operator estimation-accuracy summary when the
/// run was instrumented (analyze = true).
struct RunOutcome {
  double estimated = 0.0;
  int64_t measured = 0;
  std::string description;

  // Filled only when RunConfig(..., analyze = true).
  double q_root = 1.0;      // q-error of the plan root's cardinality
  QErrorSummary q_ops;      // q-error over every executed operator
};

inline RunOutcome RunConfig(const Catalog& catalog, const std::string& sql,
                            const OptimizerOptions& options,
                            bool execute = true, bool analyze = false) {
  auto query = ParseAndBind(catalog, sql);
  CheckOk(query.status(), "binding", sql.c_str());
  auto optimized = OptimizeQueryWithAggViews(*query, options);
  CheckOk(optimized.status(), "optimizing", sql.c_str());
  RunOutcome outcome;
  outcome.estimated = optimized->plan->cost;
  outcome.description = optimized->description;
  if (execute) {
    IoAccountant io;
    RuntimeStatsCollector stats;
    auto result = ExecutePlan(optimized->plan, optimized->query,
                              ExecContext::Default().WithIo(&io).WithStats(
                                  analyze ? &stats : nullptr));
    CheckOk(result.status(), "executing", sql.c_str());
    outcome.measured = io.total();
    if (analyze) {
      std::vector<NodeQError> nodes =
          CollectNodeQErrors(optimized->plan, optimized->query, stats);
      outcome.q_ops = SummarizeQError(nodes);
      outcome.q_root = QError(optimized->plan->est.rows,
                              static_cast<double>(result->rows.size()));
    }
  }
  return outcome;
}

}  // namespace bench
}  // namespace aggview

#endif  // AGGVIEW_BENCH_BENCH_UTIL_H_
