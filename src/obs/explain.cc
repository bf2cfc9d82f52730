#include "obs/explain.h"

#include <algorithm>
#include <cmath>

#include "analysis/certificate.h"
#include "common/string_util.h"

namespace aggview {

double QError(double est, double actual) {
  est = std::max(est, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(est / actual, actual / est);
}

namespace {

/// Everything the collector knows about one plan node, folded over the
/// operators lowered from it: the bottom-most operator is the node's real
/// implementation (its input counts and hash/spill detail are the node's);
/// the topmost defines the node's output cardinality and inclusive time.
struct NodeRuntime {
  bool executed = false;
  const OpStats* bottom = nullptr;
  const OpStats* top = nullptr;
  int64_t pages = 0;
  int64_t hash_build_rows = 0;
  int64_t hash_probes = 0;
  int64_t spill_pages = 0;
  int64_t workers = 1;
};

NodeRuntime RuntimeOfNode(const PlanNode* node,
                          const RuntimeStatsCollector& stats) {
  NodeRuntime rt;
  for (const RuntimeStatsCollector::Entry& e : stats.entries()) {
    if (e.node != node) continue;
    rt.executed = true;
    if (rt.bottom == nullptr) rt.bottom = e.stats.get();
    rt.top = e.stats.get();
    rt.pages += e.stats->pages_charged;
    rt.hash_build_rows += e.stats->hash_build_rows;
    rt.hash_probes += e.stats->hash_probes;
    rt.spill_pages += e.stats->spill_pages;
    rt.workers = std::max(rt.workers, e.stats->workers);
  }
  return rt;
}

/// Renders the node's provable cardinality bounds (the facts PlanBuilder
/// clamped its estimate into).
std::string BoundsSuffix(const PlanNode& node) {
  if (node.facts == nullptr) return "";  // a node built by hand
  const CardBounds& card = node.facts->card;
  if (std::isfinite(card.hi)) {
    return StrFormat(" bounds=[%.0f, %.0f]", card.lo, card.hi);
  }
  return StrFormat(" bounds=[%.0f, inf]", card.lo);
}

void ExplainRec(const PlanPtr& plan, const Query& query,
                const RuntimeStatsCollector& stats, int indent,
                std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *out += pad + PlanNodeLabel(plan, query);

  NodeRuntime rt = RuntimeOfNode(plan.get(), stats);
  if (rt.executed) {
    double actual = static_cast<double>(rt.top->rows_produced);
    *out += StrFormat(
        "  (est=%.1f act=%lld batches=%lld q=%.2f pages=%lld time=%.3fms",
        plan->est.rows, static_cast<long long>(rt.top->rows_produced),
        static_cast<long long>(rt.top->batches_produced),
        QError(plan->est.rows, actual), static_cast<long long>(rt.pages),
        static_cast<double>(rt.top->total_ns()) / 1e6);
    if (rt.bottom->input_rows > 0) {
      *out += StrFormat(" rows_in=%lld",
                        static_cast<long long>(rt.bottom->input_rows));
    }
    if (rt.hash_build_rows > 0 || rt.hash_probes > 0) {
      *out += StrFormat(" build=%lld probes=%lld",
                        static_cast<long long>(rt.hash_build_rows),
                        static_cast<long long>(rt.hash_probes));
    }
    if (rt.spill_pages > 0) {
      *out += StrFormat(" spill=%lld", static_cast<long long>(rt.spill_pages));
    }
    if (rt.workers > 1) {
      *out += StrFormat(" workers=%lld", static_cast<long long>(rt.workers));
    }
    // Which backend implemented this node ("compiled" / "interpret"). Only
    // labeled when the compiled backend was requested; interpreter-only
    // output is unchanged. The bottom block is the node's real
    // implementation (a Project wrapper above it is plumbing).
    if (!rt.bottom->backend.empty()) {
      *out += " backend=" + rt.bottom->backend;
      // Why the node fell back to the interpreter (compiled backend only):
      // a short token; the full story (e.g. a bytecode verifier rejection)
      // is in the audit's CompilationCertificate.
      if (!rt.bottom->fallback.empty()) {
        *out += " fallback=" + rt.bottom->fallback;
      }
    }
    *out += BoundsSuffix(*plan);
    *out += ")";
  } else {
    *out += StrFormat("  (est=%.1f act=? never executed%s)", plan->est.rows,
                      BoundsSuffix(*plan).c_str());
  }
  *out += "\n";
  if (plan->left != nullptr) {
    ExplainRec(plan->left, query, stats, indent + 1, out);
  }
  if (plan->right != nullptr) {
    ExplainRec(plan->right, query, stats, indent + 1, out);
  }
}

void CollectRec(const PlanPtr& plan, const Query& query,
                const RuntimeStatsCollector& stats,
                std::vector<NodeQError>* out) {
  const OpStats* top = stats.ForNode(plan.get());
  if (top != nullptr) {
    NodeQError node;
    node.node = plan.get();
    node.label = PlanNodeLabel(plan, query);
    node.est_rows = plan->est.rows;
    node.actual_rows = static_cast<double>(top->rows_produced);
    node.q = QError(node.est_rows, node.actual_rows);
    out->push_back(std::move(node));
  }
  if (plan->left != nullptr) CollectRec(plan->left, query, stats, out);
  if (plan->right != nullptr) CollectRec(plan->right, query, stats, out);
}

}  // namespace

std::vector<NodeQError> CollectNodeQErrors(const PlanPtr& plan,
                                           const Query& query,
                                           const RuntimeStatsCollector& stats) {
  std::vector<NodeQError> out;
  CollectRec(plan, query, stats, &out);
  return out;
}

QErrorSummary SummarizeQError(const std::vector<NodeQError>& nodes) {
  QErrorSummary summary;
  if (nodes.empty()) return summary;
  double log_sum = 0.0;
  for (const NodeQError& n : nodes) {
    ++summary.nodes;
    log_sum += std::log(n.q);
    if (summary.worst_label.empty() || n.q > summary.max_q) {
      summary.max_q = n.q;
      summary.worst_label = n.label;
    }
  }
  summary.mean_q = std::exp(log_sum / static_cast<double>(summary.nodes));
  return summary;
}

std::string ExplainAnalyze(const PlanPtr& plan, const Query& query,
                           const RuntimeStatsCollector& stats) {
  std::string out;
  ExplainRec(plan, query, stats, 0, &out);
  QErrorSummary summary =
      SummarizeQError(CollectNodeQErrors(plan, query, stats));
  out += StrFormat(
      "-- %d operator(s): q-error max=%.2f geo-mean=%.2f%s%s\n", summary.nodes,
      summary.max_q, summary.mean_q,
      summary.worst_label.empty() ? "" : " worst=",
      summary.worst_label.c_str());
  return out;
}

std::string ExplainAnalyze(
    const PlanPtr& plan, const Query& query, const RuntimeStatsCollector& stats,
    const std::vector<CompilationCertificate>& compilations) {
  std::string out = ExplainAnalyze(plan, query, stats);
  if (compilations.empty()) return out;
  out += StrFormat("-- %d compiled program(s):\n",
                   static_cast<int>(compilations.size()));
  for (const CompilationCertificate& cert : compilations) {
    out += StrFormat("[%s/%s] %s\n", cert.node.c_str(), cert.kind.c_str(),
                     cert.source.c_str());
    if (cert.verified) {
      out += StrFormat(
          "  verified: %d instruction(s), max stack depth %d, "
          "%d witness row(s)\n",
          cert.instructions, cert.max_stack_depth, cert.witness_rows);
      // Indent the listing two spaces under its certificate header.
      const std::string& listing = cert.disassembly;
      size_t start = 0;
      while (start < listing.size()) {
        size_t end = listing.find('\n', start);
        if (end == std::string::npos) end = listing.size();
        out += "  " + listing.substr(start, end - start) + "\n";
        start = end + 1;
      }
    } else {
      // The rejection diagnostic already quotes the offending listing.
      out += "  REJECTED (operator fell back to the interpreter): " +
             cert.rejection;
      if (out.back() != '\n') out += "\n";
    }
  }
  return out;
}

}  // namespace aggview
