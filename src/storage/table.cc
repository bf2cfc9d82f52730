#include "storage/table.h"

#include <algorithm>

namespace aggview {

Status Table::Append(Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    const Value& v = row[static_cast<size_t>(i)];
    if (!v.is_null() && v.type() != schema_.column(i).type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema_.column(i).name + "'");
    }
  }
  AppendUnchecked(std::move(row));
  return Status::OK();
}

Row Table::row(int64_t i) const {
  Row out;
  out.reserve(columns_.size());
  for (const std::vector<Value>& col : columns_) {
    out.push_back(col[static_cast<size_t>(i)]);
  }
  return out;
}

Status Table::DeleteRows(const std::vector<int64_t>& indices) {
  for (int64_t i : indices) {
    if (i < 0 || i >= row_count()) {
      return Status::InvalidArgument("delete index out of range");
    }
  }
  std::vector<int64_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.empty()) return Status::OK();
  // Single-pass compaction of every column: shift each survivor left over
  // the holes. Erasing one index at a time moves the whole tail per delete —
  // O(n * d), which dominates large-delta maintenance.
  const size_t n = static_cast<size_t>(row_count_);
  for (std::vector<Value>& col : columns_) {
    size_t out = static_cast<size_t>(sorted[0]);
    size_t next_hole = 0;
    for (size_t i = out; i < n; ++i) {
      if (next_hole < sorted.size() &&
          static_cast<int64_t>(i) == sorted[next_hole]) {
        ++next_hole;
        continue;
      }
      col[out++] = std::move(col[i]);
    }
    col.resize(out);
  }
  row_count_ -= static_cast<int64_t>(sorted.size());
  return Status::OK();
}

void Table::ReplaceRows(std::vector<Row> rows) {
  columns_.assign(columns_.size(), std::vector<Value>());
  row_count_ = 0;
  Reserve(static_cast<int64_t>(rows.size()));
  for (Row& r : rows) AppendUnchecked(std::move(r));
}

}  // namespace aggview
