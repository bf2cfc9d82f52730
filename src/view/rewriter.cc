#include "view/rewriter.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "view/definition_analysis.h"

namespace aggview {

namespace {

/// Orientation-independent rendering: `a < b` and `b > a` canonicalize
/// identically, so predicate multisets compare structurally.
std::string CanonPredicate(const Predicate& p, const ColumnCatalog& cat) {
  std::string fwd = p.ToString(cat);
  Predicate flipped(p.rhs, FlipCompareOp(p.op), p.lhs);
  std::string rev = flipped.ToString(cat);
  return fwd < rev ? fwd : rev;
}

std::vector<std::string> CanonConjunction(const std::vector<Predicate>& preds,
                                          const ColumnCatalog& cat) {
  std::vector<std::string> out;
  out.reserve(preds.size());
  for (const Predicate& p : preds) out.push_back(CanonPredicate(p, cat));
  std::sort(out.begin(), out.end());
  return out;
}

/// Finds which block relation produces `id` and the table-local column.
bool LocateInRels(const Query& q, const std::vector<int>& rels, ColId id,
                  int* rel_pos, int* col) {
  for (size_t p = 0; p < rels.size(); ++p) {
    const RangeVar& rv = q.range_var(rels[p]);
    for (size_t j = 0; j < rv.columns.size(); ++j) {
      if (rv.columns[j] == id) {
        *rel_pos = static_cast<int>(p);
        *col = static_cast<int>(j);
        return true;
      }
    }
  }
  return false;
}

/// A successful match of one block against one view, ready to apply.
struct Match {
  /// Definition FROM position -> incoming range-variable id.
  std::vector<int> mapping;
  /// Backing-schema-positional ColId reuse: matched grouping columns adopt
  /// the incoming ids, everything else allocates fresh.
  std::vector<ColId> reuse;
  /// Per incoming aggregate: the backing columns (schema positions) feeding
  /// its combine, and the combine kind.
  std::vector<AggKind> combine_kinds;
  std::vector<std::vector<int>> combine_storage;
};

/// Checks one rel mapping in full: predicates, grouping containment, slot
/// coverage. Returns the completed match or nullopt.
std::optional<Match> CheckMapping(const Query& q, const DefAnalysis& def,
                                  const std::vector<Predicate>& predicates,
                                  const GroupBySpec& group_by,
                                  std::vector<int> mapping) {
  // Remap the definition's predicates into the incoming column space.
  std::unordered_map<ColId, ColId> colmap;
  for (size_t p = 0; p < mapping.size(); ++p) {
    const RangeVar& dv = q.range_var(mapping[p]);  // incoming
    const RangeVar& sv =
        def.query.range_var(def.query.base_rels()[p]);  // definition
    for (size_t j = 0; j < sv.columns.size(); ++j) {
      colmap[sv.columns[j]] = dv.columns[j];
    }
  }
  std::vector<Predicate> def_preds;
  def_preds.reserve(def.query.predicates().size());
  for (const Predicate& p : def.query.predicates()) {
    def_preds.push_back(p.RemapColumns(colmap));
  }
  if (CanonConjunction(def_preds, q.columns()) !=
      CanonConjunction(predicates, q.columns())) {
    return std::nullopt;
  }

  Match m;
  m.mapping = std::move(mapping);
  m.reuse.assign(static_cast<size_t>(def.backing_schema.num_columns()),
                 kInvalidColId);

  // Grouping containment: every kept grouping column must be one of the
  // view's grouping keys (under the mapping); it then adopts that backing
  // position.
  for (ColId g : group_by.grouping) {
    int rel_pos = -1;
    int col = -1;
    if (!LocateInRels(q, m.mapping, g, &rel_pos, &col)) {
      return std::nullopt;
    }
    int key = -1;
    for (int k = 0; k < def.num_grouping; ++k) {
      if (def.grouping_rel[static_cast<size_t>(k)] == rel_pos &&
          def.grouping_col[static_cast<size_t>(k)] == col) {
        key = k;
        break;
      }
    }
    if (key < 0) return std::nullopt;
    m.reuse[static_cast<size_t>(key)] = g;
  }

  // Every aggregate must land on a stored slot of the same kind and
  // argument; COUNT(*) lands on the hidden row count.
  for (const AggregateCall& call : group_by.aggregates) {
    if (call.kind == AggKind::kCountStar) {
      m.combine_kinds.push_back(AggKind::kCountSum);
      m.combine_storage.push_back({def.rows_col});
      continue;
    }
    if (call.kind != AggKind::kSum && call.kind != AggKind::kCount &&
        call.kind != AggKind::kMin && call.kind != AggKind::kMax &&
        call.kind != AggKind::kAvg) {
      return std::nullopt;  // MEDIAN / internal kinds: not answerable
    }
    int rel_pos = -1;
    int col = -1;
    if (!LocateInRels(q, m.mapping, call.args[0], &rel_pos, &col)) {
      return std::nullopt;
    }
    const ViewAggSlot* slot = nullptr;
    for (const ViewAggSlot& s : def.slots) {
      if (s.kind == call.kind && s.arg_rel == rel_pos && s.arg_col == col) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) return std::nullopt;
    m.combine_kinds.push_back(slot->combine);
    m.combine_storage.push_back(slot->storage);
  }
  return m;
}

/// Tries every table-preserving bijection between the definition's FROM list
/// and the block's relations.
std::optional<Match> TryMatch(const Query& q, const DefAnalysis& def,
                              const std::vector<int>& rels,
                              const std::vector<Predicate>& predicates,
                              const GroupBySpec& group_by) {
  if (def.base_tables.size() != rels.size()) return std::nullopt;
  std::vector<int> mapping(def.base_tables.size(), -1);
  std::vector<bool> used(rels.size(), false);
  std::optional<Match> found;
  std::function<void(size_t)> assign = [&](size_t p) {
    if (found.has_value()) return;
    if (p == mapping.size()) {
      found = CheckMapping(q, def, predicates, group_by, mapping);
      return;
    }
    for (size_t i = 0; i < rels.size(); ++i) {
      if (used[i]) continue;
      if (q.range_var(rels[i]).table != def.base_tables[p]) continue;
      used[i] = true;
      mapping[p] = rels[i];
      assign(p + 1);
      used[i] = false;
    }
  };
  assign(0);
  return found;
}

/// Applies a match to one block: detaches the replaced relations, installs
/// the backing scan (adopting matched grouping ids), and turns the
/// aggregates into combines over the partial columns (keeping their output
/// ids). Returns the certificate.
ViewRewriteCertificate ApplyMatch(Query* query, const ViewDefinition& view,
                                  const Match& m, std::vector<int>* rels,
                                  std::vector<Predicate>* predicates,
                                  GroupBySpec* group_by) {
  ViewRewriteCertificate cert;
  cert.view_name = view.name;
  cert.view_epoch = view.epoch.load(std::memory_order_acquire);
  cert.replaced_rels = m.mapping;
  cert.replaced_predicates = *predicates;
  cert.grouping = group_by->grouping;
  cert.original_aggregates = group_by->aggregates;

  std::string alias =
      view.name + "$" + std::to_string(query->num_range_vars());
  int brel = query->AddRangeVarWithReuse(view.backing_table, alias, m.reuse);
  cert.backing_rel = brel;
  const RangeVar& brv = query->range_var(brel);

  std::vector<AggregateCall> combines;
  combines.reserve(group_by->aggregates.size());
  for (size_t i = 0; i < group_by->aggregates.size(); ++i) {
    AggregateCall call;
    call.kind = m.combine_kinds[i];
    for (int storage : m.combine_storage[i]) {
      call.args.push_back(brv.columns[static_cast<size_t>(storage)]);
    }
    call.output = group_by->aggregates[i].output;
    combines.push_back(std::move(call));
  }
  cert.combine_aggregates = combines;

  for (int rel : *rels) query->DetachRangeVar(rel);
  *rels = {brel};
  predicates->clear();
  group_by->aggregates = std::move(combines);
  return cert;
}

}  // namespace

Result<int> RewriteWithMaterializedViews(
    const Catalog& catalog, Query* query,
    std::vector<ViewRewriteCertificate>* certs) {
  std::vector<const ViewDefinition*> fresh;
  for (const auto& view : catalog.views()) {
    if (catalog.IsViewFresh(*view)) fresh.push_back(view.get());
  }
  if (fresh.empty()) return 0;

  int rewrites = 0;
  auto try_site = [&](std::vector<int>* rels,
                      std::vector<Predicate>* predicates,
                      GroupBySpec* group_by) -> Status {
    for (const ViewDefinition* view : fresh) {
      std::optional<Match> m =
          TryMatch(*query, *view->def, *rels, *predicates, *group_by);
      if (!m.has_value()) continue;
      ViewRewriteCertificate cert =
          ApplyMatch(query, *view, *m, rels, predicates, group_by);
      // Self-check: re-derive the claim from the stored definition before
      // trusting the rewrite.
      AGGVIEW_RETURN_NOT_OK(VerifyViewRewriteCertificate(*query, cert));
      if (certs != nullptr) certs->push_back(std::move(cert));
      rewrites++;
      break;
    }
    return Status::OK();
  };

  for (AggView& block : query->views()) {
    AGGVIEW_RETURN_NOT_OK(
        try_site(&block.spj.rels, &block.spj.predicates, &block.group_by));
  }
  if (query->top_group_by().has_value() && !query->base_rels().empty()) {
    AGGVIEW_RETURN_NOT_OK(try_site(&query->base_rels(), &query->predicates(),
                                   &*query->top_group_by()));
  }
  if (rewrites > 0) {
    AGGVIEW_RETURN_NOT_OK(query->Validate());
  }
  return rewrites;
}

}  // namespace aggview
