#ifndef AGGVIEW_STORAGE_TABLE_H_
#define AGGVIEW_STORAGE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_accountant.h"
#include "types/schema.h"
#include "types/value.h"

namespace aggview {

/// An in-memory column store with page geometry. Each schema column is one
/// contiguous vector of Values, so a scan that reads two of eight columns
/// touches only those two vectors. The page count is still derived from the
/// schema row width, so scanning the table charges the same number of IOs
/// the cost model predicts whatever the layout.
///
/// Access costs: column(c) and at(row, col) are references into the store
/// (no copy); row(i) materializes a fresh Row, one Value copy per column,
/// and belongs on cold paths only. Cells are Values, so NULLs, -0.0 and the
/// mistyped cells AppendUnchecked admits round-trip exactly.
class Table {
 public:
  explicit Table(Schema schema)
      : schema_(std::move(schema)),
        columns_(static_cast<size_t>(schema_.num_columns())) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  int64_t row_count() const { return row_count_; }
  int64_t page_count() const {
    return PagesForRows(row_count(), schema_.RowWidth());
  }

  /// Appends a row; fails when the arity does not match the schema or a
  /// non-NULL cell's type differs from its column's. NULL fits every column.
  Status Append(Row row);

  /// Appends without validation (bulk loader fast path; the loader validates
  /// once per batch). The arity must match the schema.
  void AppendUnchecked(Row row) {
    assert(row.size() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(std::move(row[c]));
    }
    ++row_count_;
  }

  /// Pre-sizes every column for `n` rows so a bulk load appends without
  /// repeated reallocation. A hint: loading more than `n` rows still works.
  void Reserve(int64_t n) {
    if (n <= 0) return;
    for (std::vector<Value>& col : columns_) col.reserve(static_cast<size_t>(n));
  }

  /// Column `c`'s cells, one per row, in row order.
  const std::vector<Value>& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }
  /// The cell at (`row`, `col`), by reference.
  const Value& at(int64_t row, int col) const {
    return columns_[static_cast<size_t>(col)][static_cast<size_t>(row)];
  }
  /// A copy of row `i`.
  Row row(int64_t i) const;

  /// Removes the rows at `indices` (any order, duplicates ignored). Fails on
  /// an out-of-range index before touching anything.
  Status DeleteRows(const std::vector<int64_t>& indices);

  /// Replaces the whole content (refresh swaps the re-materialized rows in).
  void ReplaceRows(std::vector<Row> rows);

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  int64_t row_count_ = 0;
};

}  // namespace aggview

#endif  // AGGVIEW_STORAGE_TABLE_H_
