#include "transform/pushdown.h"

#include <algorithm>

#include "transform/unsound.h"

namespace aggview {

bool RelShape::CoversKey(const std::set<ColId>& fixed) const {
  for (const std::vector<ColId>& key : keys) {
    if (key.empty()) continue;
    bool covered = true;
    for (ColId k : key) {
      if (fixed.count(k) == 0) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

bool CanMoveGroupByPastShape(const RelShape& rel,
                             const std::set<ColId>& retained_cols,
                             const std::vector<Predicate>& preds,
                             const GroupBySpec& gb) {
  // (IG1) Aggregate arguments must not come from `rel`.
  for (ColId arg : gb.AggArgSet()) {
    if (rel.cols.count(arg) > 0) return false;
  }

  std::set<ColId> grouping(gb.grouping.begin(), gb.grouping.end());

  // (IG2) Predicates crossing between `rel` and the retained side must
  // reference only grouping columns on the retained side.
  for (const Predicate& p : preds) {
    std::set<ColId> cols = p.Columns();
    bool touches_rel = false, touches_retained = false;
    for (ColId c : cols) {
      if (rel.cols.count(c) > 0) touches_rel = true;
      if (retained_cols.count(c) > 0) touches_retained = true;
    }
    if (!touches_rel || !touches_retained) continue;
    for (ColId c : cols) {
      if (retained_cols.count(c) > 0 && grouping.count(c) == 0) return false;
    }
  }

  // (IG3) At most one matching tuple of `rel` per group. This must hold
  // even when every aggregate is duplicate-insensitive (MIN/MAX): fan-out
  // past the group-by leaves the aggregate *values* intact but multiplies
  // the *row multiplicity* of the group-by output, which any downstream
  // duplicate-sensitive consumer (count(*), sum, bag projection) observes.
  // The differential fuzzer found exactly this divergence, so the former
  // MIN/MAX waiver is gone. The mutation harness reinjects it here to prove
  // the small-scope prover rediscovers the bug.
  if (UnsoundReinjectionActive(UnsoundReinjection::kMinMaxInvariantWaiver)) {
    bool all_duplicate_insensitive = !gb.aggregates.empty();
    for (const AggregateCall& agg : gb.aggregates) {
      if (!IsDuplicateInsensitive(agg.kind)) all_duplicate_insensitive = false;
    }
    if (all_duplicate_insensitive) return true;
  }
  std::set<ColId> fixed;
  // Equi-joins with retained grouping columns.
  for (const Predicate& p : preds) {
    ColId a, b;
    if (!p.AsColumnEquality(&a, &b)) continue;
    if (rel.cols.count(b) > 0 && grouping.count(a) > 0 &&
        retained_cols.count(a) > 0) {
      fixed.insert(b);
    }
    if (rel.cols.count(a) > 0 && grouping.count(b) > 0 &&
        retained_cols.count(b) > 0) {
      fixed.insert(a);
    }
  }
  // Equality-with-literal selections on `rel`.
  for (const Predicate& p : preds) {
    ColId col;
    CompareOp op;
    Value v;
    if (p.AsColumnVsLiteral(&col, &op, &v) && op == CompareOp::kEq &&
        rel.cols.count(col) > 0) {
      fixed.insert(col);
    }
  }
  // Grouping columns owned by `rel`.
  for (ColId g : grouping) {
    if (rel.cols.count(g) > 0) fixed.insert(g);
  }
  return rel.CoversKey(fixed);
}

std::set<size_t> RemovableShapes(const std::vector<RelShape>& rels,
                                 const std::vector<Predicate>& preds,
                                 const GroupBySpec& gb) {
  std::set<size_t> removable;
  std::set<size_t> block;
  for (size_t i = 0; i < rels.size(); ++i) block.insert(i);

  bool changed = true;
  while (changed && block.size() > 1) {
    changed = false;
    for (size_t candidate : block) {
      std::set<ColId> retained_cols;
      for (size_t other : block) {
        if (other == candidate) continue;
        retained_cols.insert(rels[other].cols.begin(),
                             rels[other].cols.end());
      }
      if (CanMoveGroupByPastShape(rels[candidate], retained_cols, preds, gb)) {
        block.erase(candidate);
        removable.insert(candidate);
        changed = true;
        break;
      }
    }
  }
  return removable;
}

RelShape ShapeOfRangeVar(const Query& query, int rel_id) {
  const RangeVar& rv = query.range_var(rel_id);
  const TableDef& def = query.catalog().table(rv.table);
  RelShape shape;
  shape.cols = rv.ColumnSet();
  auto key_to_cols = [&](const std::vector<int>& key) {
    std::vector<ColId> out;
    out.reserve(key.size());
    for (int k : key) out.push_back(rv.columns[static_cast<size_t>(k)]);
    return out;
  };
  if (!def.primary_key.empty()) shape.keys.push_back(key_to_cols(def.primary_key));
  for (const auto& uk : def.unique_keys) {
    if (!uk.empty()) shape.keys.push_back(key_to_cols(uk));
  }
  if (rv.rowid != kInvalidColId) shape.keys.push_back({rv.rowid});
  return shape;
}

InvariantAnalysis AnalyzeInvariantGrouping(const Query& query,
                                           const AggView& view) {
  std::vector<RelShape> shapes;
  shapes.reserve(view.spj.rels.size());
  for (int r : view.spj.rels) shapes.push_back(ShapeOfRangeVar(query, r));
  std::set<size_t> removable =
      RemovableShapes(shapes, view.spj.predicates, view.group_by);

  InvariantAnalysis out;
  for (size_t i = 0; i < view.spj.rels.size(); ++i) {
    if (removable.count(i) > 0) {
      out.removable.insert(view.spj.rels[i]);
    } else {
      out.minimal_invariant_set.insert(view.spj.rels[i]);
    }
  }
  return out;
}

Result<Query> ShrinkViewToInvariantSet(const Query& query, size_t view_idx,
                                       std::set<int>* moved,
                                       InvariantCertificate* cert) {
  if (view_idx >= query.views().size()) {
    return Status::InvalidArgument("view index out of range");
  }
  Query out = query;
  AggView& view = out.views()[view_idx];
  InvariantAnalysis analysis = AnalyzeInvariantGrouping(out, view);
  if (moved != nullptr) *moved = analysis.removable;
  if (cert != nullptr) {
    *cert = InvariantCertificate{};
    cert->group_by = view.group_by;
    cert->predicates = view.spj.predicates;
    for (int r : view.spj.rels) {
      BlockRelClaim claim;
      claim.name = out.range_var(r).alias;
      claim.scan_rel = r;
      if (analysis.removable.count(r) > 0) {
        cert->removed.push_back(std::move(claim));
      } else {
        cert->retained.push_back(std::move(claim));
      }
    }
  }
  if (analysis.removable.empty()) return out;

  const std::set<int>& keep = analysis.minimal_invariant_set;
  std::vector<int> keep_vec(keep.begin(), keep.end());
  std::set<ColId> keep_cols = out.ColumnsOfRels(keep_vec);

  // Relations: removable ones join the top block. Preserve the view's
  // original relation order for the retained ones.
  std::vector<int> new_rels;
  for (int r : view.spj.rels) {
    if (keep.count(r) > 0) {
      new_rels.push_back(r);
    } else {
      out.base_rels().push_back(r);
    }
  }
  view.spj.rels = std::move(new_rels);

  // Predicates: those bound by the retained relations stay; the rest move to
  // the top block (IG2 guarantees their retained-side columns are grouping
  // columns and hence remain visible as view outputs).
  std::vector<Predicate> staying;
  for (const Predicate& p : view.spj.predicates) {
    if (p.BoundBy(keep_cols)) {
      staying.push_back(p);
    } else {
      out.predicates().push_back(p);
    }
  }
  view.spj.predicates = std::move(staying);

  // Grouping columns owned by moved relations leave the group-by (they are
  // directly available at the top now).
  std::vector<ColId> new_grouping;
  for (ColId g : view.group_by.grouping) {
    if (keep_cols.count(g) > 0) new_grouping.push_back(g);
  }
  view.group_by.grouping = std::move(new_grouping);

  // HAVING conjuncts referencing moved columns become top-level predicates
  // (aggregate outputs and retained grouping columns are view outputs there).
  std::set<ColId> having_visible(view.group_by.grouping.begin(),
                                 view.group_by.grouping.end());
  for (const AggregateCall& a : view.group_by.aggregates) {
    having_visible.insert(a.output);
  }
  std::vector<Predicate> staying_having;
  for (const Predicate& p : view.group_by.having) {
    if (p.BoundBy(having_visible)) {
      staying_having.push_back(p);
    } else {
      out.predicates().push_back(p);
    }
  }
  view.group_by.having = std::move(staying_having);

  AGGVIEW_RETURN_NOT_OK(out.Validate());
  return out;
}

}  // namespace aggview
