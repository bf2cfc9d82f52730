#include "verify/shrink.h"

#include <set>
#include <utility>
#include <vector>

namespace aggview {

namespace {

Value TypedLabel(DataType type, int64_t i) {
  switch (type) {
    case DataType::kInt64:
      return Value::Int(i);
    case DataType::kDouble:
      return Value::Real(static_cast<double>(i));
    case DataType::kString:
      return Value::Str(std::string("k").append(std::to_string(i)));
  }
  return Value::Int(i);
}

DataType KeyType(const SchemaSkeleton& skeleton, int table_idx) {
  const TableSkeleton& ts = skeleton.tables[static_cast<size_t>(table_idx)];
  return ts.schema.column(ts.key_column).type;
}

/// Old row index a foreign-key cell refers to, or -1 for NULL / no match.
int64_t ReferencedRow(const SchemaSkeleton& skeleton, int ref_idx,
                      const Value& cell, int64_t ref_rows) {
  if (cell.is_null()) return -1;
  DataType type = KeyType(skeleton, ref_idx);
  for (int64_t i = 0; i < ref_rows; ++i) {
    if (cell == TypedLabel(type, i)) return i;
  }
  return -1;
}

/// Collapse candidates for one cell, simplest first: the zero value, then
/// NULL, then the remaining domain ascending (for foreign keys: label 0,
/// NULL, then the remaining labels). A cell's rank is its position here;
/// collapse only ever moves a cell to a strictly lower rank.
std::vector<Value> CollapseCandidates(const SchemaSkeleton& skeleton,
                                      int table_idx, const SkeletonColumn& col,
                                      const BoundedDatabase& db) {
  std::vector<Value> out;
  if (col.fk_table >= 0) {
    int ref = skeleton.IndexOf(col.fk_table);
    int64_t ref_rows = db.tables[static_cast<size_t>(ref)]->row_count();
    DataType type = KeyType(skeleton, ref);
    if (ref_rows > 0) out.push_back(TypedLabel(type, 0));
    out.push_back(Value::Null());
    for (int64_t i = 1; i < ref_rows; ++i) out.push_back(TypedLabel(type, i));
    return out;
  }
  (void)table_idx;
  Value zero = col.type == DataType::kDouble ? Value::Real(0.0) : Value::Int(0);
  out.push_back(zero);
  if (col.nullable) out.push_back(Value::Null());
  for (const Value& v : col.domain) {
    if (v != zero) out.push_back(v);
  }
  return out;
}

int RankOf(const std::vector<Value>& candidates, const Value& v) {
  for (size_t i = 0; i < candidates.size(); ++i) {
    if ((candidates[i].is_null() && v.is_null()) ||
        (!candidates[i].is_null() && !v.is_null() && candidates[i] == v)) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(candidates.size());
}

}  // namespace

BoundedDatabase RemoveRowCascade(const SchemaSkeleton& skeleton,
                                 const BoundedDatabase& db, int table_idx,
                                 int64_t row) {
  const size_t n = skeleton.tables.size();
  std::vector<std::set<int64_t>> removed(n);
  std::vector<std::pair<int, int64_t>> worklist;
  removed[static_cast<size_t>(table_idx)].insert(row);
  worklist.emplace_back(table_idx, row);

  while (!worklist.empty()) {
    auto [t, r] = worklist.back();
    worklist.pop_back();
    TableId victim_table = skeleton.tables[static_cast<size_t>(t)].table;
    Value victim_label = TypedLabel(KeyType(skeleton, t), r);
    for (size_t u = 0; u < n; ++u) {
      const TableSkeleton& ts = skeleton.tables[u];
      for (const SkeletonColumn& col : ts.columns) {
        if (col.fk_table != victim_table) continue;
        const Table& table = *db.tables[u];
        for (int64_t s = 0; s < table.row_count(); ++s) {
          const Value& cell = table.at(s, col.index);
          if (cell.is_null() || cell != victim_label) continue;
          if (removed[u].insert(s).second) {
            worklist.emplace_back(static_cast<int>(u), s);
          }
        }
      }
    }
  }

  // Survivor maps: old row index -> new canonical label.
  std::vector<std::vector<int64_t>> new_label(n);
  for (size_t t = 0; t < n; ++t) {
    const Table& table = *db.tables[t];
    new_label[t].assign(static_cast<size_t>(table.row_count()), -1);
    int64_t next = 0;
    for (int64_t r = 0; r < table.row_count(); ++r) {
      if (removed[t].count(r) == 0) new_label[t][static_cast<size_t>(r)] = next++;
    }
  }

  BoundedDatabase out;
  out.tables.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const TableSkeleton& ts = skeleton.tables[t];
    auto table = std::make_shared<Table>(ts.schema);
    const Table& old = *db.tables[t];
    for (int64_t r = 0; r < old.row_count(); ++r) {
      int64_t label = new_label[t][static_cast<size_t>(r)];
      if (label < 0) continue;
      Row row_out = old.row(r);
      for (const SkeletonColumn& col : ts.columns) {
        size_t c = static_cast<size_t>(col.index);
        if (col.is_key || col.pin_distinct) {
          row_out[c] = TypedLabel(ts.schema.column(col.index).type, label);
        } else if (col.fk_table >= 0 && !row_out[c].is_null()) {
          int ref = skeleton.IndexOf(col.fk_table);
          int64_t old_ref = ReferencedRow(
              skeleton, ref, row_out[c],
              db.tables[static_cast<size_t>(ref)]->row_count());
          if (old_ref >= 0) {
            row_out[c] = TypedLabel(KeyType(skeleton, ref),
                                    new_label[static_cast<size_t>(ref)]
                                             [static_cast<size_t>(old_ref)]);
          }
        }
      }
      table->AppendUnchecked(std::move(row_out));
    }
    out.tables.push_back(std::move(table));
  }
  return out;
}

Result<BoundedDatabase> ShrinkCounterexample(const SchemaSkeleton& skeleton,
                                             const BoundedDatabase& db,
                                             const RefutesFn& refutes,
                                             ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats* st = stats != nullptr ? stats : &local;
  *st = ShrinkStats{};

  BoundedDatabase current = CloneDatabase(skeleton, db);
  const size_t n = skeleton.tables.size();

  auto consult = [&](const BoundedDatabase& candidate) -> Result<bool> {
    ++st->oracle_calls;
    return refutes(candidate);
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // Pass 1: row removal (with FK cascade) to a fixpoint. After this pass
    // no single removal keeps the refutation — the 1-minimality invariant.
    bool removed_one = true;
    while (removed_one) {
      removed_one = false;
      for (size_t t = 0; t < n && !removed_one; ++t) {
        int64_t rows = current.tables[t]->row_count();
        for (int64_t r = 0; r < rows && !removed_one; ++r) {
          BoundedDatabase candidate =
              RemoveRowCascade(skeleton, current, static_cast<int>(t), r);
          Result<bool> still = consult(candidate);
          if (!still.ok()) return still.status();
          if (*still) {
            int64_t delta = current.total_rows() - candidate.total_rows();
            st->rows_removed += delta;
            current = std::move(candidate);
            removed_one = true;
            changed = true;
          }
        }
      }
    }

    // Pass 2: value collapse toward 0 / NULL, cheapest candidate first,
    // keeping the declared unique keys satisfied.
    for (size_t t = 0; t < n; ++t) {
      const TableSkeleton& ts = skeleton.tables[t];
      for (int64_t r = 0; r < current.tables[t]->row_count(); ++r) {
        for (const SkeletonColumn& col : ts.columns) {
          if (col.is_key || col.pin_distinct || !col.relevant) continue;
          size_t c = static_cast<size_t>(col.index);
          std::vector<Value> candidates =
              CollapseCandidates(skeleton, static_cast<int>(t), col, current);
          const Value& cell = current.tables[t]->at(r, col.index);
          int rank = RankOf(candidates, cell);
          for (int i = 0; i < rank; ++i) {
            BoundedDatabase candidate = CloneDatabase(skeleton, current);
            // Rebuild the one row with the collapsed cell.
            Row row_out = candidate.tables[t]->row(r);
            row_out[c] = candidates[static_cast<size_t>(i)];
            auto table = std::make_shared<Table>(ts.schema);
            for (int64_t rr = 0; rr < candidate.tables[t]->row_count(); ++rr) {
              table->AppendUnchecked(rr == r ? row_out
                                             : candidate.tables[t]->row(rr));
            }
            candidate.tables[t] = std::move(table);
            if (!SatisfiesUniqueKeys(skeleton, candidate)) continue;
            Result<bool> still = consult(candidate);
            if (!still.ok()) return still.status();
            if (*still) {
              current = std::move(candidate);
              ++st->values_collapsed;
              changed = true;
              break;
            }
          }
        }
      }
    }
  }
  return current;
}

}  // namespace aggview
