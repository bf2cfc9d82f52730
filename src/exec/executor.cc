#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "obs/runtime_stats.h"

namespace aggview {

namespace {

/// Values are rendered with rounding for the fingerprint so that plans that
/// compute the same number via different float operation orders (e.g. AVG
/// vs SUM/COUNT after coalescing) compare equal.
std::string FingerprintValue(const Value& v) {
  if (v.is_null()) return "\x01NULL";  // distinct from the string 'NULL'
  if (v.is_string()) return v.AsString();
  if (v.is_int()) return std::to_string(v.AsInt());
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v.AsDouble());
  return buf;
}

}  // namespace

std::string QueryResult::Fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  size_t total = 0;
  for (const Row& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "|";
      line += FingerprintValue(row[i]);
    }
    total += line.size() + 1;  // +1 for the trailing newline
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  out.reserve(total);
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

std::string QueryResult::ToString(const ColumnCatalog& columns) const {
  std::string out;
  for (size_t i = 0; i < layout.columns().size(); ++i) {
    if (i > 0) out += " | ";
    out += columns.name(layout.columns()[i]);
  }
  out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

Result<QueryResult> ExecutePlan(const PlanPtr& plan, const Query& query,
                                const ExecContext& ctx) {
  // Self-verification needs per-node row counts for the post-drain
  // cardinality check; instrument the run locally when the caller did not.
  RuntimeStatsCollector verify_stats;
  ExecContext effective = ctx;
  if (ctx.verify != nullptr && ctx.stats == nullptr) {
    effective.stats = &verify_stats;
  }
  AGGVIEW_ASSIGN_OR_RETURN(OperatorPtr op, LowerPlan(plan, query, effective));
  AGGVIEW_RETURN_NOT_OK(op->Open());
  QueryResult result;
  result.layout = op->layout();
  // Every pipeline instance collects its share of the output into a private
  // buffer; the buffers concatenate in worker order. With one worker this
  // is the serial drain. A parallel result is the same multiset (the
  // fingerprint convention sorts rows, so even the order difference is
  // invisible to equivalence checks).
  int workers = MorselWorkers(*op);
  std::vector<std::vector<Row>> chunks(static_cast<size_t>(workers));
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      op.get(), workers, [&](int w, Operator* instance) -> Status {
        std::vector<Row>& rows = chunks[static_cast<size_t>(w)];
        RowBatch batch(ctx.batch_size);
        while (true) {
          auto more = instance->Next(&batch);
          if (!more.ok()) return more.status();
          if (!*more) return Status::OK();
          for (int i = 0; i < batch.size(); ++i) {
            // Copy, not move: the batch slots keep their heap buffers, so
            // the operator refills them without a per-row allocation.
            rows.push_back(batch.row(i));
          }
        }
      }));
  result.rows = std::move(chunks[0]);
  for (size_t w = 1; w < chunks.size(); ++w) {
    result.rows.insert(result.rows.end(),
                       std::make_move_iterator(chunks[w].begin()),
                       std::make_move_iterator(chunks[w].end()));
  }
  op->Close();
  if (ctx.verify != nullptr && effective.stats != nullptr) {
    AGGVIEW_RETURN_NOT_OK(
        ctx.verify->CheckPlanCardinality(*effective.stats));
  }
  return result;
}

}  // namespace aggview
