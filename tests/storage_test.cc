#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "storage/io_accountant.h"
#include "storage/table.h"

namespace aggview {
namespace {

TEST(IoGeometry, RowsPerPage) {
  EXPECT_EQ(RowsPerPage(8), kPageSizeBytes / 8);
  EXPECT_EQ(RowsPerPage(kPageSizeBytes), 1);
  EXPECT_EQ(RowsPerPage(kPageSizeBytes * 2), 1);  // at least one row per page
  EXPECT_EQ(RowsPerPage(0), kPageSizeBytes);      // degenerate width
}

TEST(IoGeometry, PagesForRows) {
  EXPECT_EQ(PagesForRows(0, 8), 0);
  EXPECT_EQ(PagesForRows(1, 8), 1);
  int64_t per_page = RowsPerPage(8);
  EXPECT_EQ(PagesForRows(per_page, 8), 1);
  EXPECT_EQ(PagesForRows(per_page + 1, 8), 2);
}

TEST(IoAccountantTest, CountsReadsAndWrites) {
  IoAccountant io;
  io.ChargeRead(10);
  io.ChargeWrite(3);
  EXPECT_EQ(io.reads(), 10);
  EXPECT_EQ(io.writes(), 3);
  EXPECT_EQ(io.total(), 13);
  io.Reset();
  EXPECT_EQ(io.total(), 0);
}

TEST(TableTest, AppendValidates) {
  Table t(Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}}));
  EXPECT_TRUE(t.Append({Value::Int(1), Value::Real(2.0)}).ok());
  EXPECT_FALSE(t.Append({Value::Int(1)}).ok());                       // arity
  EXPECT_FALSE(t.Append({Value::Real(1.0), Value::Real(2.0)}).ok());  // type
  EXPECT_EQ(t.row_count(), 1);

  // NULL fits a column of every type (Value::type() reports a NULL as
  // STRING, so the check must not compare a NULL's type).
  Table typed(Schema({{"i", DataType::kInt64},
                      {"d", DataType::kDouble},
                      {"s", DataType::kString}}));
  EXPECT_TRUE(
      typed.Append({Value::Null(), Value::Real(1.0), Value::Str("a")}).ok());
  EXPECT_TRUE(typed.Append({Value::Int(1), Value::Null(), Value::Str("b")}).ok());
  EXPECT_TRUE(typed.Append({Value::Int(2), Value::Real(2.0), Value::Null()}).ok());
  EXPECT_EQ(typed.row_count(), 3);
  EXPECT_TRUE(typed.at(0, 0).is_null());
  EXPECT_TRUE(typed.at(1, 1).is_null());
  EXPECT_TRUE(typed.at(2, 2).is_null());
}

/// A table of (id INT64, v DOUBLE, s STRING) holding ids 0..n-1.
Table NumberedTable(int64_t n) {
  Table t(Schema({{"id", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString}}));
  for (int64_t i = 0; i < n; ++i) {
    t.AppendUnchecked({Value::Int(i), Value::Real(i * 0.5),
                       Value::Str("r" + std::to_string(i))});
  }
  return t;
}

/// The ids left in `t`, in row order, read through all three accessors.
std::vector<int64_t> Ids(const Table& t) {
  std::vector<int64_t> ids;
  for (int64_t r = 0; r < t.row_count(); ++r) {
    const int64_t id = t.at(r, 0).AsInt();
    EXPECT_EQ(t.row(r)[0].AsInt(), id);
    EXPECT_EQ(t.column(0)[static_cast<size_t>(r)].AsInt(), id);
    EXPECT_EQ(t.at(r, 1).AsDouble(), id * 0.5);
    EXPECT_EQ(t.at(r, 2).AsString(), "r" + std::to_string(id));
    ids.push_back(id);
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(static_cast<int64_t>(t.column(c).size()), t.row_count());
  }
  return ids;
}

TEST(TableTest, CellsRoundTripTypeForType) {
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString}}));
  // A mistyped Int(3) in the DOUBLE column (AppendUnchecked admits it), a
  // NULL in every column, and -0.0.
  t.AppendUnchecked({Value::Int(1), Value::Int(3), Value::Str("x")});
  t.AppendUnchecked({Value::Null(), Value::Null(), Value::Null()});
  t.AppendUnchecked({Value::Int(2), Value::Real(-0.0), Value::Str("")});
  ASSERT_EQ(t.row_count(), 3);

  for (const Value& cell : {t.row(0)[1], t.at(0, 1), t.column(1)[0]}) {
    EXPECT_TRUE(cell.is_int());
    EXPECT_EQ(cell.AsInt(), 3);
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(t.row(1)[static_cast<size_t>(c)].is_null());
    EXPECT_TRUE(t.at(1, c).is_null());
    EXPECT_TRUE(t.column(c)[1].is_null());
  }
  for (const Value& cell : {t.row(2)[1], t.at(2, 1), t.column(1)[2]}) {
    ASSERT_TRUE(cell.is_double());
    EXPECT_EQ(cell.AsDouble(), 0.0);
    EXPECT_TRUE(std::signbit(cell.AsDouble()));
  }
  EXPECT_TRUE(t.at(2, 2).is_string());
  EXPECT_EQ(t.row(0), (Row{Value::Int(1), Value::Int(3), Value::Str("x")}));
}

TEST(TableTest, DeleteRowsWithRepeatedAndUnsortedIndices) {
  Table t = NumberedTable(8);
  ASSERT_TRUE(t.DeleteRows({6, 1, 6, 0, 3, 1}).ok());
  EXPECT_EQ(t.row_count(), 4);
  EXPECT_EQ(Ids(t), (std::vector<int64_t>{2, 4, 5, 7}));
  ASSERT_TRUE(t.DeleteRows({}).ok());
  EXPECT_EQ(t.row_count(), 4);
  ASSERT_TRUE(t.DeleteRows({3, 0, 1, 2}).ok());
  EXPECT_EQ(t.row_count(), 0);
  EXPECT_EQ(t.page_count(), 0);
}

TEST(TableTest, DeleteRowsOutOfRangeLeavesTableUntouched) {
  Table t = NumberedTable(5);
  EXPECT_FALSE(t.DeleteRows({1, 5, 2}).ok());
  EXPECT_FALSE(t.DeleteRows({0, -1}).ok());
  EXPECT_EQ(t.row_count(), 5);
  EXPECT_EQ(Ids(t), (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(TableTest, ReplaceRows) {
  Table t = NumberedTable(6);
  std::vector<Row> fresh;
  for (int64_t id : {9, 8}) {
    fresh.push_back({Value::Int(id), Value::Real(id * 0.5),
                     Value::Str("r" + std::to_string(id))});
  }
  t.ReplaceRows(std::move(fresh));
  EXPECT_EQ(t.row_count(), 2);
  EXPECT_EQ(Ids(t), (std::vector<int64_t>{9, 8}));
  t.ReplaceRows({});
  EXPECT_EQ(t.row_count(), 0);
  t.AppendUnchecked({Value::Int(4), Value::Real(2.0), Value::Str("r4")});
  EXPECT_EQ(Ids(t), (std::vector<int64_t>{4}));
}

TEST(TableTest, PageCountMatchesGeometry) {
  Table t(Schema({{"id", DataType::kInt64}}));
  int64_t per_page = RowsPerPage(8);
  for (int64_t i = 0; i < per_page + 1; ++i) {
    t.AppendUnchecked({Value::Int(i)});
  }
  EXPECT_EQ(t.page_count(), 2);
}

TEST(TableTest, RowAccess) {
  Table t(Schema({{"id", DataType::kInt64}}));
  t.AppendUnchecked({Value::Int(7)});
  EXPECT_EQ(t.row(0)[0].AsInt(), 7);
  EXPECT_EQ(t.column(0).size(), 1u);
}

}  // namespace
}  // namespace aggview
