#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

#include "metrics.h"

namespace perfbench {

std::string LayerOf(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot == nullptr ? std::string(span_name)
                        : std::string(span_name, static_cast<size_t>(dot - span_name));
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, int64_t request,
                     int64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

int64_t SpanScope::End() {
  if (tracer_ == nullptr || done_) return span_.duration_ns();
  done_ = true;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
  return span_.duration_ns();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<OperatorSelf> OperatorSelfTimes(
    const aggview::PlanPtr& root,
    const aggview::RuntimeStatsCollector& stats) {
  std::map<const aggview::PlanNode*, std::vector<const aggview::OpStats*>>
      chains;
  for (const auto& entry : stats.entries()) {
    chains[entry.node].push_back(entry.stats.get());
  }
  auto wall = [](const aggview::OpStats* s) {
    return s->total_ns() / std::max<int64_t>(1, s->workers);
  };
  auto top_wall = [&](const aggview::PlanPtr& node) -> int64_t {
    if (node == nullptr) return 0;
    auto it = chains.find(node.get());
    return it == chains.end() || it->second.empty() ? 0
                                                    : wall(it->second.back());
  };
  std::vector<OperatorSelf> out;
  std::vector<const aggview::PlanNode*> stack = {root.get()};
  while (!stack.empty()) {
    const aggview::PlanNode* node = stack.back();
    stack.pop_back();
    if (node == nullptr) continue;
    stack.push_back(node->left.get());
    stack.push_back(node->right.get());
    auto it = chains.find(node);
    if (it == chains.end()) continue;
    const auto& chain = it->second;
    for (size_t k = 0; k < chain.size(); ++k) {
      const int64_t inputs = k > 0 ? wall(chain[k - 1])
                                   : top_wall(node->left) + top_wall(node->right);
      OperatorSelf op;
      op.op_class = chain[k]->op_name;
      op.self_ns = std::max<int64_t>(0, wall(chain[k]) - inputs);
      op.input_rows = chain[k]->input_rows;
      op.workers = chain[k]->workers;
      op.spill_pages = chain[k]->spill_pages;
      out.push_back(std::move(op));
    }
  }
  return out;
}

}  // namespace perfbench
