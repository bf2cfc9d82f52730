#ifndef AGGVIEW_CATALOG_STATISTICS_H_
#define AGGVIEW_CATALOG_STATISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace aggview {

class Table;

/// Equi-depth histogram over a numeric column: `bounds` holds the bucket
/// upper edges (ascending, last == column max); each bucket holds ~1/N of
/// the rows. Gives range-predicate estimates that survive skewed and
/// multi-modal distributions where the uniform min/max interpolation fails.
struct Histogram {
  double min = 0.0;
  std::vector<double> bounds;

  bool empty() const { return bounds.empty(); }

  /// Estimated fraction of rows with value < x (strict); values within a
  /// bucket interpolate linearly.
  double FractionBelow(double x) const;
};

/// Per-column statistics used by the cardinality estimator.
struct ColumnStats {
  /// Number of distinct values in the column, NULL counting as one (at
  /// least 1). Counts values, not hashes: numbers are one value only when
  /// they are the same number (INT64 2^53 and 2^53 + 1 are two), and a
  /// string never equals a number.
  int64_t distinct = 1;
  /// Numeric min/max (meaningful for INT64/DOUBLE columns; ignored for
  /// strings, whose range predicates get the default selectivity). An
  /// INT64 extreme is rounded outward (LowerBoundOf/UpperBoundOf), so the
  /// range contains every value even beyond 2^53.
  double min = 0.0;
  double max = 0.0;
  bool has_range = false;
  /// Lexicographic min/max over the non-NULL values of a string column, so
  /// interval domains exist for strings too (the estimator still uses the
  /// default selectivity for string ranges; these feed the dataflow
  /// analyzer's value domains).
  std::string min_str;
  std::string max_str;
  bool has_str_range = false;
  /// Exact number of NULLs in the column (NULLs count toward `distinct` as
  /// one bucket but contribute nothing to any range). Seeds the dataflow
  /// analyzer's nullability lattice: 0 proves a scanned column never-NULL.
  int64_t null_count = 0;
  /// Equi-depth histogram (numeric columns with enough rows).
  Histogram histogram;
};

/// Table-level statistics: row count plus per-column stats, positionally
/// aligned with the table schema.
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

/// An INT64 bound as a double, rounded outward: the largest double <= v for
/// a lower bound, the smallest double >= v for an upper bound. A plain cast
/// rounds to nearest, which beyond 2^53 can cut the value itself off.
double LowerBoundOf(int64_t v);
double UpperBoundOf(int64_t v);

/// Number of equi-depth buckets built per numeric column.
inline constexpr int kHistogramBuckets = 32;

/// Scans `table` and computes exact statistics (the paper assumes the
/// optimizer has statistics; we make them exact so that estimation error is a
/// controlled, explainable quantity in the experiments). One pass per column
/// gathers sort keys, which are sorted once; columns holding values of other
/// types than they declare are handled the same way.
TableStats ComputeStats(const Table& table);

}  // namespace aggview

#endif  // AGGVIEW_CATALOG_STATISTICS_H_
