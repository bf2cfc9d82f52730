#ifndef AGGVIEW_STORAGE_TABLE_H_
#define AGGVIEW_STORAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_accountant.h"
#include "types/schema.h"
#include "types/value.h"

namespace aggview {

/// An in-memory row store with page geometry. Rows live in a vector; the
/// page count is derived from the schema row width so that scanning the
/// table charges the same number of IOs the cost model predicts.
class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  int64_t row_count() const { return static_cast<int64_t>(rows_.size()); }
  int64_t page_count() const {
    return PagesForRows(row_count(), schema_.RowWidth());
  }

  /// Appends a row; fails when arity or column types do not match the schema.
  Status Append(Row row);

  /// Appends without validation (bulk loader fast path; the loader validates
  /// once per batch).
  void AppendUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Pre-sizes the row store for `n` rows so a bulk load appends without
  /// repeated reallocation. A hint: loading more than `n` rows still works.
  void Reserve(int64_t n) {
    if (n > 0) rows_.reserve(static_cast<size_t>(n));
  }

  const Row& row(int64_t i) const { return rows_[static_cast<size_t>(i)]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Removes the rows at `indices` (any order, duplicates ignored). Fails on
  /// an out-of-range index before touching anything.
  Status DeleteRows(const std::vector<int64_t>& indices);

  /// Replaces the whole row store (refresh swaps the re-materialized
  /// content in; the fuzzer's mutation cycle restores a snapshot).
  void ReplaceRows(std::vector<Row> rows) { rows_ = std::move(rows); }

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace aggview

#endif  // AGGVIEW_STORAGE_TABLE_H_
