#include "exec/compile/fused_ops.h"

#include <algorithm>
#include <utility>

#include "cost/cost_model.h"
#include "obs/runtime_stats.h"

namespace aggview {

// ------------------------------------------------------ CompiledAggregateOp

CompiledAggregateOp::CompiledAggregateOp(Spec spec,
                                         const ColumnCatalog* columns,
                                         IoAccountant* io)
    : spec_(std::move(spec)), columns_(columns), io_(io) {
  layout_ = RowLayout(spec_.group_by.OutputColumns());
}

CompiledAggregateOp::Group CompiledAggregateOp::MakeGroup() const {
  Group g;
  g.accs.reserve(spec_.group_by.aggregates.size());
  for (const AggregateCall& a : spec_.group_by.aggregates) {
    g.accs.emplace_back(a.kind);
  }
  return g;
}

void CompiledAggregateOp::MigrateToGeneric(IntGroupMap* fast,
                                           std::optional<Group>* null_group,
                                           GroupMap* generic) const {
  // Fast-lane keys were all INT64, so re-keying them as Value::Int rows is
  // exactly the key the generic map would have built for those input rows;
  // a later DOUBLE key equal to one of them (3.0 vs 3) finds the migrated
  // group because RowHash/RowEq follow Value's cross-type numeric equality.
  generic->reserve(fast->size() + 1);
  for (auto& [k, g] : *fast) {
    generic->emplace(Row{Value::Int(k)}, std::move(g));
  }
  if (null_group->has_value()) {
    generic->emplace(Row{Value::Null()}, std::move(**null_group));
  }
  fast->clear();
  null_group->reset();
}

Status CompiledAggregateOp::OpenImpl() {
  results_.clear();
  pos_ = 0;
  const Table& table = *spec_.table;
  if (spec_.charge_scan) {
    int64_t pages = table.page_count();
    if (io_ != nullptr) io_->ChargeRead(pages);
    if (scan_stats_ != nullptr) scan_stats_->pages_charged += pages;
  }

  const bool scalar = spec_.group_idx.empty();
  const bool single_key = spec_.group_idx.size() == 1;
  const int key_idx = single_key ? spec_.group_idx[0] : -1;
  IntGroupMap fast;
  std::optional<Group> null_group;
  std::optional<Group> scalar_group;
  GroupMap generic;
  bool generic_active = !scalar && !single_key;

  const size_t num_aggs = spec_.group_by.aggregates.size();
  int64_t examined = 0;
  int64_t passed_scan = 0;
  int64_t passed_all = 0;
  Row key_scratch;
  const int64_t n = table.row_count();
  for (int64_t i = 0; i < n; ++i) {
    const Row& row = table.row(i);
    ++examined;
    if (!spec_.scan_filter->EvalRow(row, &scratch_)) continue;
    ++passed_scan;
    if (!spec_.filter->EvalRow(row, &scratch_)) continue;
    ++passed_all;

    Group* g;
    if (scalar) {
      if (!scalar_group.has_value()) scalar_group = MakeGroup();
      g = &*scalar_group;
    } else if (!generic_active) {
      const Value& k = row[static_cast<size_t>(key_idx)];
      if (k.is_int()) {
        auto [it, inserted] = fast.try_emplace(k.AsInt());
        if (inserted) it->second = MakeGroup();
        g = &it->second;
      } else if (k.is_null()) {
        if (!null_group.has_value()) null_group = MakeGroup();
        g = &*null_group;
      } else {
        MigrateToGeneric(&fast, &null_group, &generic);
        generic_active = true;
        auto it = generic.find(Row{k});
        if (it == generic.end()) it = generic.emplace(Row{k}, MakeGroup()).first;
        g = &it->second;
      }
    } else {
      key_scratch.clear();
      key_scratch.reserve(spec_.group_idx.size());
      for (int idx : spec_.group_idx) {
        key_scratch.push_back(row[static_cast<size_t>(idx)]);
      }
      auto it = generic.find(key_scratch);
      if (it == generic.end()) {
        it = generic.emplace(key_scratch, MakeGroup()).first;
      }
      g = &it->second;
    }

    for (size_t a = 0; a < num_aggs; ++a) {
      const std::vector<int>& idxs = spec_.arg_idx[a];
      AggAccumulator& acc = g->accs[a];
      switch (idxs.size()) {
        case 0:
          acc.Add0();
          break;
        case 1:
          acc.Add1(row[static_cast<size_t>(idxs[0])]);
          break;
        default:
          acc.Add2(row[static_cast<size_t>(idxs[0])],
                   row[static_cast<size_t>(idxs[1])]);
          break;
      }
    }
  }

  // SQL: a scalar aggregate over zero input rows yields exactly one row
  // (COUNT = 0, SUM/MIN/MAX/AVG = NULL); grouped queries yield no rows.
  if (scalar && !scalar_group.has_value()) scalar_group = MakeGroup();

  if (scan_stats_ != nullptr) {
    scan_stats_->input_rows += examined;
    scan_stats_->rows_produced += passed_scan;
  }
  if (filter_stats_ != nullptr) {
    filter_stats_->input_rows += passed_scan;
    filter_stats_->rows_produced += passed_all;
  }
  CountInput(passed_all);

  int64_t group_count;
  if (scalar) {
    group_count = 1;
  } else if (generic_active) {
    group_count = static_cast<int64_t>(generic.size());
  } else {
    group_count = static_cast<int64_t>(fast.size()) +
                  (null_group.has_value() ? 1 : 0);
  }

  // Same spill formula and operands as HashAggregateOp: pages of the rows
  // the aggregate consumed, at the (fused-away) child's output row width.
  double in_pages = CostModel::Pages(static_cast<double>(passed_all),
                                     spec_.input_row_width);
  double spill = CostModel::HashAggLocalCost(in_pages);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
    stats_->hash_build_rows = group_count;
  }

  auto emit = [&](Row key, Group* group) {
    Row out = std::move(key);
    for (AggAccumulator& acc : group->accs) out.push_back(acc.Finish());
    if (!spec_.having->EvalRow(out, &scratch_)) return;
    results_.push_back(std::move(out));
  };
  if (scalar) {
    emit(Row{}, &*scalar_group);
  } else if (generic_active) {
    for (auto& [key, group] : generic) emit(key, &group);
  } else {
    for (auto& [key, group] : fast) emit(Row{Value::Int(key)}, &group);
    if (null_group.has_value()) emit(Row{Value::Null()}, &*null_group);
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> CompiledAggregateOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < results_.size() && !out->full()) {
    out->AppendRow() = results_[pos_++];
  }
  return !out->empty();
}

void CompiledAggregateOp::CloseImpl() { results_.clear(); }

}  // namespace aggview
