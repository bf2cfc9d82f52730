#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "common/random.h"
#include "storage/table.h"
#include "test_util.h"

namespace aggview {
namespace {

TableDef SimpleTable(const std::string& name) {
  TableDef def;
  def.name = name;
  def.schema = Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  def.primary_key = {0};
  return def;
}

TEST(CatalogTest, AddAndFind) {
  Catalog catalog;
  auto id = catalog.AddTable(SimpleTable("t"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(catalog.table(*id).name, "t");
  auto found = catalog.FindTable("t");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *id);
  EXPECT_FALSE(catalog.FindTable("nope").ok());
}

TEST(CatalogTest, RejectsDuplicateNames) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(SimpleTable("t")).ok());
  EXPECT_EQ(catalog.AddTable(SimpleTable("t")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RejectsBadPrimaryKey) {
  Catalog catalog;
  TableDef def = SimpleTable("t");
  def.primary_key = {5};
  EXPECT_EQ(catalog.AddTable(std::move(def)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, CoversKey) {
  TableDef def = SimpleTable("t");
  def.unique_keys = {{1}};
  EXPECT_TRUE(def.CoversKey({0}));
  EXPECT_TRUE(def.CoversKey({0, 1}));
  EXPECT_TRUE(def.CoversKey({1}));
  def.unique_keys.clear();
  EXPECT_FALSE(def.CoversKey({1}));
  EXPECT_FALSE(def.CoversKey({}));
}

TEST(CatalogTest, CompositeKeyCoverage) {
  TableDef def;
  def.name = "c";
  def.schema = Schema({{"a", DataType::kInt64},
                       {"b", DataType::kInt64},
                       {"v", DataType::kDouble}});
  def.primary_key = {0, 1};
  EXPECT_FALSE(def.CoversKey({0}));
  EXPECT_TRUE(def.CoversKey({1, 0}));
  EXPECT_TRUE(def.CoversKey({0, 1, 2}));
}

TEST(CatalogTest, ForeignKeyValidation) {
  Catalog catalog;
  auto parent = catalog.AddTable(SimpleTable("parent"));
  TableDef child_def = SimpleTable("child");
  child_def.schema.AddColumn({"pid", DataType::kInt64});
  auto child = catalog.AddTable(std::move(child_def));
  ASSERT_TRUE(parent.ok() && child.ok());

  ForeignKey good;
  good.referencing_table = *child;
  good.referencing_columns = {2};
  good.referenced_table = *parent;
  good.referenced_columns = {0};
  EXPECT_TRUE(catalog.AddForeignKey(good).ok());

  ForeignKey not_a_key = good;
  not_a_key.referenced_columns = {1};  // "v" is not a key of parent
  EXPECT_FALSE(catalog.AddForeignKey(not_a_key).ok());

  ForeignKey arity = good;
  arity.referencing_columns = {2, 0};
  EXPECT_FALSE(catalog.AddForeignKey(arity).ok());
}

TEST(CatalogTest, IsForeignKeyJoin) {
  Catalog catalog;
  auto parent = catalog.AddTable(SimpleTable("parent"));
  TableDef child_def = SimpleTable("child");
  child_def.schema.AddColumn({"pid", DataType::kInt64});
  auto child = catalog.AddTable(std::move(child_def));
  ForeignKey fk;
  fk.referencing_table = *child;
  fk.referencing_columns = {2};
  fk.referenced_table = *parent;
  fk.referenced_columns = {0};
  ASSERT_TRUE(catalog.AddForeignKey(fk).ok());

  EXPECT_TRUE(catalog.IsForeignKeyJoin(*child, {2}, *parent, {0}));
  EXPECT_FALSE(catalog.IsForeignKeyJoin(*child, {0}, *parent, {0}));
  EXPECT_FALSE(catalog.IsForeignKeyJoin(*parent, {0}, *child, {2}));
}

TEST(StatisticsTest, ComputeStats) {
  Table t(Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble},
                  {"s", DataType::kString}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(i), Value::Real(i % 3),
                          Value::Str(i % 2 == 0 ? "even" : "odd")})
                    .ok());
  }
  TableStats stats = ComputeStats(t);
  EXPECT_EQ(stats.row_count, 10);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_EQ(stats.columns[0].distinct, 10);
  EXPECT_EQ(stats.columns[1].distinct, 3);
  EXPECT_EQ(stats.columns[2].distinct, 2);
  EXPECT_TRUE(stats.columns[0].has_range);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, 9.0);
  EXPECT_FALSE(stats.columns[2].has_range);
}

TEST(StatisticsTest, ComputeStatsStringMinMax) {
  Table t(Schema({{"s", DataType::kString}}));
  for (const char* s : {"pear", "apple", "quince", "banana", "apple"}) {
    t.AppendUnchecked({Value::Str(s)});
  }
  TableStats stats = ComputeStats(t);
  ASSERT_EQ(stats.columns.size(), 1u);
  EXPECT_TRUE(stats.columns[0].has_str_range);
  EXPECT_EQ(stats.columns[0].min_str, "apple");
  EXPECT_EQ(stats.columns[0].max_str, "quince");
  EXPECT_FALSE(stats.columns[0].has_range);
  EXPECT_EQ(stats.columns[0].null_count, 0);
}

TEST(StatisticsTest, ComputeStatsSkipsNullsInRanges) {
  Table t(Schema({{"v", DataType::kDouble}, {"s", DataType::kString}}));
  // NULLs must not contaminate min/max on either side: without the skip, a
  // NULL would coerce to 0.0 and drag the numeric min below 5.0.
  t.AppendUnchecked({Value::Real(7.0), Value::Null()});
  t.AppendUnchecked({Value::Null(), Value::Str("kiwi")});
  t.AppendUnchecked({Value::Real(5.0), Value::Str("mango")});
  t.AppendUnchecked({Value::Null(), Value::Null()});
  TableStats stats = ComputeStats(t);
  EXPECT_EQ(stats.row_count, 4);
  EXPECT_TRUE(stats.columns[0].has_range);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 5.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, 7.0);
  EXPECT_EQ(stats.columns[0].null_count, 2);
  EXPECT_TRUE(stats.columns[1].has_str_range);
  EXPECT_EQ(stats.columns[1].min_str, "kiwi");
  EXPECT_EQ(stats.columns[1].max_str, "mango");
  EXPECT_EQ(stats.columns[1].null_count, 2);
}

TEST(StatisticsTest, ComputeStatsAllNullColumn) {
  Table t(Schema({{"v", DataType::kDouble}}));
  for (int i = 0; i < 3; ++i) t.AppendUnchecked({Value::Null()});
  TableStats stats = ComputeStats(t);
  // No non-NULL value exists, so no range of either kind may be claimed.
  EXPECT_FALSE(stats.columns[0].has_range);
  EXPECT_FALSE(stats.columns[0].has_str_range);
  EXPECT_EQ(stats.columns[0].null_count, 3);
}

TEST(StatisticsTest, EquiDepthHistogram) {
  Table t(Schema({{"v", DataType::kDouble}}));
  // Bimodal: 900 values near 0, 100 values near 1000 — uniform
  // interpolation would be badly wrong here.
  for (int i = 0; i < 900; ++i) t.AppendUnchecked({Value::Real(i * 0.001)});
  for (int i = 0; i < 100; ++i) t.AppendUnchecked({Value::Real(1000.0 + i)});
  TableStats stats = ComputeStats(t);
  const Histogram& h = stats.columns[0].histogram;
  ASSERT_FALSE(h.empty());
  // ~90% of rows are below 1.0.
  EXPECT_NEAR(h.FractionBelow(1.0), 0.9, 0.05);
  // Uniform interpolation would have claimed ~0.1% here.
  EXPECT_GT(h.FractionBelow(500.0), 0.85);
  EXPECT_DOUBLE_EQ(h.FractionBelow(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(1e9), 1.0);
}

TEST(StatisticsTest, HistogramMonotone) {
  Table t(Schema({{"v", DataType::kInt64}}));
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    t.AppendUnchecked({Value::Int(rng.Zipf(1000, 1.1))});
  }
  TableStats stats = ComputeStats(t);
  const Histogram& h = stats.columns[0].histogram;
  ASSERT_FALSE(h.empty());
  double prev = -1.0;
  for (double x = 0.0; x <= 1001.0; x += 13.0) {
    double f = h.FractionBelow(x);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(StatisticsTest, HistogramAccurateOnSkewedData) {
  Table t(Schema({{"v", DataType::kInt64}}));
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.Zipf(10000, 1.0);
    values.push_back(v);
    t.AppendUnchecked({Value::Int(v)});
  }
  TableStats stats = ComputeStats(t);
  const Histogram& h = stats.columns[0].histogram;
  for (int64_t cut : {5, 50, 500, 5000}) {
    double actual = 0;
    for (int64_t v : values) {
      if (v < cut) actual += 1;
    }
    actual /= static_cast<double>(values.size());
    EXPECT_NEAR(h.FractionBelow(static_cast<double>(cut)), actual, 0.05)
        << "cut " << cut;
  }
}

TEST(StatisticsTest, EmptyTable) {
  Table t(Schema({{"id", DataType::kInt64}}));
  TableStats stats = ComputeStats(t);
  EXPECT_EQ(stats.row_count, 0);
  EXPECT_EQ(stats.columns[0].distinct, 1);  // clamped to avoid div-by-zero
  EXPECT_FALSE(stats.columns[0].has_range);
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Asserts every field of `got` equals `want`, doubles compared bitwise.
void ExpectSameStats(const TableStats& got, const TableStats& want,
                     const std::string& context) {
  ASSERT_EQ(got.row_count, want.row_count) << context;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << context;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    std::string where = context + " column " + std::to_string(c);
    EXPECT_EQ(g.distinct, w.distinct) << where;
    EXPECT_EQ(Bits(g.min), Bits(w.min)) << where;
    EXPECT_EQ(Bits(g.max), Bits(w.max)) << where;
    EXPECT_EQ(g.has_range, w.has_range) << where;
    EXPECT_EQ(g.min_str, w.min_str) << where;
    EXPECT_EQ(g.max_str, w.max_str) << where;
    EXPECT_EQ(g.has_str_range, w.has_str_range) << where;
    EXPECT_EQ(g.null_count, w.null_count) << where;
    EXPECT_EQ(Bits(g.histogram.min), Bits(w.histogram.min)) << where;
    ASSERT_EQ(g.histogram.bounds.size(), w.histogram.bounds.size()) << where;
    for (size_t b = 0; b < g.histogram.bounds.size(); ++b) {
      EXPECT_EQ(Bits(g.histogram.bounds[b]), Bits(w.histogram.bounds[b]))
          << where << " bound " << b;
    }
  }
}

/// The one-pass-per-column statistics algorithm ComputeStats used before its
/// sort-once kernel, as the differential oracle for well-typed tables, with
/// three changes: it counts distinct values rather than distinct hashes, it
/// reads -0.0 as 0.0 (the kernel's one value for both; before, which sign a
/// range end took depended on row order), and it rounds an INT64 min/max
/// outward (LowerBoundOf/UpperBoundOf) instead of to the nearest double.
TableStats ReferenceStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.row_count();
  const Schema& schema = table.schema();
  stats.columns.resize(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[static_cast<size_t>(c)];
    std::set<int64_t> ints;
    std::set<uint64_t> doubles;
    std::set<std::string> strings;
    bool first = true;
    bool numeric = IsNumeric(schema.column(c).type);
    std::vector<double> values;
    for (const Value& v : table.column(c)) {
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      if (v.is_string()) {
        const std::string& s = v.AsString();
        if (strings.empty()) {
          cs.min_str = cs.max_str = s;
        } else {
          if (s < cs.min_str) cs.min_str = s;
          if (s > cs.max_str) cs.max_str = s;
        }
        strings.insert(s);
        continue;
      }
      double d = v.AsNumeric();
      if (d == 0.0) d = 0.0;
      if (v.is_int()) {
        ints.insert(v.AsInt());
      } else {
        doubles.insert(Bits(d));
      }
      if (numeric) {
        values.push_back(d);
        double lo = v.is_int() ? LowerBoundOf(v.AsInt()) : d;
        double hi = v.is_int() ? UpperBoundOf(v.AsInt()) : d;
        if (first) {
          cs.min = lo;
          cs.max = hi;
          first = false;
        } else {
          if (lo < cs.min) cs.min = lo;
          if (hi > cs.max) cs.max = hi;
        }
      }
    }
    cs.distinct = static_cast<int64_t>(ints.size() + doubles.size() +
                                       strings.size()) +
                  (cs.null_count > 0 ? 1 : 0);
    if (cs.distinct == 0) cs.distinct = 1;
    cs.has_range = numeric && !first;
    cs.has_str_range = !strings.empty();
    if (cs.has_range && values.size() >= 2) {
      std::sort(values.begin(), values.end());
      cs.histogram.min = values.front();
      int buckets = static_cast<int>(
          std::min<size_t>(kHistogramBuckets, values.size()));
      for (int b = 1; b <= buckets; ++b) {
        size_t idx = values.size() * static_cast<size_t>(b) /
                         static_cast<size_t>(buckets) -
                     1;
        cs.histogram.bounds.push_back(values[idx]);
      }
      cs.histogram.bounds.back() = values.back();
    }
  }
  return stats;
}

/// Seeded random table: for each of INT64, DOUBLE and STRING, one column of
/// heavy duplicates, one of all-unique values and one drawn from the whole
/// domain; `null_share` of every column's cells are NULL. The duplicate
/// doubles include both -0.0 and 0.0.
Table RandomTable(uint64_t seed, int64_t rows, double null_share) {
  Table t(Schema({{"i_dup", DataType::kInt64},
                  {"i_unique", DataType::kInt64},
                  {"i_wide", DataType::kInt64},
                  {"d_dup", DataType::kDouble},
                  {"d_unique", DataType::kDouble},
                  {"d_wide", DataType::kDouble},
                  {"s_dup", DataType::kString},
                  {"s_unique", DataType::kString},
                  {"s_wide", DataType::kString}}));
  Rng rng(seed);
  const double dup_doubles[] = {-0.0, 0.0, -1.5, 2.25, 1e300, -1e-300};
  const char* dup_strings[] = {"", "a", "ab", "b", "zz"};
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    auto cell = [&](Value v) {
      row.push_back(rng.Chance(null_share) ? Value::Null() : std::move(v));
    };
    cell(Value::Int(rng.Uniform(-3, 3)));
    cell(Value::Int(r * 7 - rows * 3));
    cell(Value::Int(static_cast<int64_t>(rng.engine()())));
    cell(Value::Real(dup_doubles[rng.Uniform(0, 5)]));
    cell(Value::Real(static_cast<double>(rows - r) * 0.37 - 11.0));
    double wide = 0.0;
    do {
      wide = std::bit_cast<double>(rng.engine()());
    } while (!std::isfinite(wide));
    cell(Value::Real(wide));
    cell(Value::Str(dup_strings[rng.Uniform(0, 4)]));
    cell(Value::Str("u" + std::to_string(rows - r)));
    cell(Value::Str(rng.String(static_cast<int>(rng.Uniform(0, 8)))));
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

TEST(StatisticsTest, MatchesReferenceOnRandomTables) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (int64_t rows : {0, 1, 2, 31, 32, 33, 1000, 5000}) {
      for (double null_share : {0.0, 0.1, 1.0}) {
        Table t = RandomTable(seed * 1000 + static_cast<uint64_t>(rows),
                              rows, null_share);
        ExpectSameStats(ComputeStats(t), ReferenceStats(t),
                        "seed " + std::to_string(seed) + " rows " +
                            std::to_string(rows) + " nulls " +
                            std::to_string(null_share));
      }
    }
  }
}

TEST(StatisticsTest, DistinctCountsValuesNotHashes) {
  // 2^53 and 2^53 + 1 are distinct INT64 values that round to one double,
  // so their hashes collide. The GroupBy over v forms two groups; a
  // distinct count of 1 would cap its provable bounds at one row.
  const int64_t big = int64_t{1} << 53;
  Catalog catalog;
  TableDef def;
  def.name = "t";
  def.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  def.primary_key = {0};
  auto data = std::make_shared<Table>(def.schema);
  data->AppendUnchecked({Value::Int(1), Value::Int(big)});
  data->AppendUnchecked({Value::Int(2), Value::Int(big + 1)});
  data->AppendUnchecked({Value::Int(3), Value::Int(big + 1)});
  def.stats = ComputeStats(*data);
  def.data = data;
  EXPECT_EQ(def.stats.columns[1].distinct, 2);
  ASSERT_OK(catalog.AddTable(std::move(def)));

  auto query =
      ParseAndBind(catalog, "select t.v, count(*) from t group by t.v");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);
  RuntimeStatsCollector runtime;
  auto result = ExecutePlan(optimized->plan, optimized->query,
                            ExecContext::Default().WithStats(&runtime));
  ASSERT_OK(result);
  EXPECT_EQ(result->rows.size(), 2u);

  int group_bys = 0;
  std::vector<const PlanNode*> stack = {optimized->plan.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->left != nullptr) stack.push_back(node->left.get());
    if (node->right != nullptr) stack.push_back(node->right.get());
    if (node->kind != PlanNode::Kind::kGroupBy) continue;
    ++group_bys;
    const OpStats* op = runtime.ForNode(node);
    ASSERT_NE(op, nullptr);
    ASSERT_NE(node->facts, nullptr);
    const double actual = static_cast<double>(op->rows_produced);
    EXPECT_EQ(actual, 2.0);
    EXPECT_LE(node->facts->card.lo, actual);
    EXPECT_GE(node->facts->card.hi, actual);
  }
  EXPECT_EQ(group_bys, 1);
}

TEST(StatisticsTest, BoundsBeyond2To53ContainTheActualRows) {
  // An INT64 literal or extreme beyond 2^53 has no exact double. The strict
  // comparison's unit applies in int64 arithmetic and every bound rounds
  // outward, so `v < 2^53 + 1` keeps v = 2^53 (a round-to-nearest literal
  // minus one unit proved the scan empty while it returned the row).
  const int64_t big = int64_t{1} << 53;
  struct Case {
    int64_t v;
    const char* sql;
  };
  const Case cases[] = {
      {big, "select t.k from t where t.v < 9007199254740993"},
      {big, "select t.k, count(*) from t where t.v < 9007199254740993 "
            "group by t.k"},
      {big + 1, "select t.k from t where t.v <= 9007199254740993"},
      {big + 1, "select t.k from t where t.v >= 9007199254740993"},
      {big + 1, "select t.k from t where t.v > 9007199254740992"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    Catalog catalog;
    TableDef def;
    def.name = "t";
    def.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    def.primary_key = {0};
    auto data = std::make_shared<Table>(def.schema);
    data->AppendUnchecked({Value::Int(1), Value::Int(c.v)});
    def.stats = ComputeStats(*data);
    def.data = data;
    const ColumnStats& v = def.stats.columns[1];
    EXPECT_LE(v.min, static_cast<long double>(c.v));
    EXPECT_GE(v.max, static_cast<long double>(c.v));
    ASSERT_OK(catalog.AddTable(std::move(def)));

    auto query = ParseAndBind(catalog, c.sql);
    ASSERT_OK(query);
    auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
    ASSERT_OK(optimized);
    RuntimeStatsCollector runtime;
    auto result = ExecutePlan(optimized->plan, optimized->query,
                              ExecContext::Default().WithStats(&runtime));
    ASSERT_OK(result);
    EXPECT_EQ(result->rows.size(), 1u);

    int checked = 0;
    std::vector<const PlanNode*> stack = {optimized->plan.get()};
    while (!stack.empty()) {
      const PlanNode* node = stack.back();
      stack.pop_back();
      if (node->left != nullptr) stack.push_back(node->left.get());
      if (node->right != nullptr) stack.push_back(node->right.get());
      const OpStats* op = runtime.ForNode(node);
      if (op == nullptr || node->facts == nullptr) continue;
      ++checked;
      const double actual = static_cast<double>(op->rows_produced);
      EXPECT_LE(node->facts->card.lo, actual);
      EXPECT_GE(node->facts->card.hi, actual);
    }
    EXPECT_GT(checked, 0);
  }
}

TEST(StatisticsTest, MixedColumnsCountExactValues) {
  // Backing tables and bulk loads append without type checks, so a column
  // can hold values of other types than it declares. Numbers count by exact
  // value across INT64 and DOUBLE; a string never equals a number.
  const int64_t big = int64_t{1} << 53;
  Table t(Schema({{"d", DataType::kDouble}, {"s", DataType::kString}}));
  t.AppendUnchecked({Value::Int(3), Value::Str("x")});
  t.AppendUnchecked({Value::Real(3.0), Value::Int(5)});
  t.AppendUnchecked({Value::Int(big + 1), Value::Real(5.0)});
  t.AppendUnchecked({Value::Real(static_cast<double>(big)), Value::Null()});
  t.AppendUnchecked({Value::Int(big), Value::Str("x")});
  t.AppendUnchecked({Value::Real(-0.0), Value::Int(6)});
  t.AppendUnchecked({Value::Int(0), Value::Str("w")});
  t.AppendUnchecked({Value::Str("x"), Value::Null()});
  t.AppendUnchecked({Value::Null(), Value::Real(0.5)});
  TableStats stats = ComputeStats(t);

  const ColumnStats& d = stats.columns[0];
  // {0, 3, 2^53, 2^53 + 1}, the string and the NULL bucket.
  EXPECT_EQ(d.distinct, 6);
  EXPECT_EQ(d.null_count, 1);
  ASSERT_TRUE(d.has_range);
  EXPECT_EQ(Bits(d.min), Bits(0.0));
  // The max is INT64 2^53 + 1, rounded outward to 2^53 + 2 so the range
  // contains it (the nearest double, 2^53, would not).
  EXPECT_EQ(d.max, static_cast<double>(big) + 2.0);
  ASSERT_EQ(d.histogram.bounds.size(), 7u);  // one per numeric value
  EXPECT_EQ(Bits(d.histogram.min), Bits(0.0));
  const double want[] = {0.0, 0.0, 3.0, 3.0, static_cast<double>(big),
                         static_cast<double>(big), static_cast<double>(big)};
  for (size_t b = 0; b < 7; ++b) {
    EXPECT_EQ(Bits(d.histogram.bounds[b]), Bits(want[b])) << "bound " << b;
  }
  EXPECT_TRUE(d.has_str_range);
  EXPECT_EQ(d.min_str, "x");
  EXPECT_EQ(d.max_str, "x");

  const ColumnStats& s = stats.columns[1];
  // {"w", "x"}, {5, 6, 0.5} and the NULL bucket; no numeric range on a
  // string column.
  EXPECT_EQ(s.distinct, 6);
  EXPECT_EQ(s.null_count, 2);
  EXPECT_FALSE(s.has_range);
  EXPECT_TRUE(s.histogram.empty());
  EXPECT_EQ(s.min_str, "w");
  EXPECT_EQ(s.max_str, "x");
}

}  // namespace
}  // namespace aggview
