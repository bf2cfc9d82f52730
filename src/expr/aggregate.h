#ifndef AGGVIEW_EXPR_AGGREGATE_H_
#define AGGVIEW_EXPR_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "common/result.h"
#include "types/value.h"

namespace aggview {

/// Aggregate functions. Besides the SQL built-ins, MEDIAN stands in for the
/// paper's "user-defined aggregate functions (without side-effects)" and is
/// deliberately *not* decomposable, which exercises the applicability gate of
/// simple coalescing grouping (Section 4.2).
///
/// kAvgFinal is the coalescing-combine form of AVG: it takes two inputs (a
/// partial SUM column and a partial COUNT column) and emits their ratio.
///
/// kCountSum is the coalescing-combine form of COUNT/COUNT(*): a SUM of
/// partial counts that keeps COUNT's empty-input semantics — a scalar
/// aggregate over zero rows yields 0, where a plain SUM would yield NULL.
/// (The differential fuzzer caught a plain-SUM combine turning a scalar
/// COUNT over an empty join into NULL.)
enum class AggKind : uint8_t {
  kCountStar,
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kMedian,
  kAvgFinal,
  kCountSum,
};

const char* AggKindName(AggKind kind);

/// True when groups aggregated with `kind` can be computed from
/// sub-aggregates of a partition of the group (Section 4.2's "decomposable"
/// property): SUM/COUNT/MIN/MAX/AVG are; MEDIAN is not.
bool IsDecomposable(AggKind kind);

/// True when duplicating input rows never changes the result (MIN/MAX).
/// Duplicate-insensitive aggregates relax the applicability conditions of the
/// push-down transformations.
bool IsDuplicateInsensitive(AggKind kind);

/// One aggregate computation `output := kind(args)` inside a group-by
/// operator. COUNT(*) has no args; AVG-final has two (sum, count); everything
/// else has one.
struct AggregateCall {
  AggKind kind = AggKind::kCountStar;
  std::vector<ColId> args;
  ColId output = kInvalidColId;

  /// Result type given the argument types.
  DataType ResultType(const ColumnCatalog& cat) const;

  std::string ToString(const ColumnCatalog& cat) const;
};

/// Streaming accumulator for one aggregate over one group. Hash aggregation
/// keeps one per (group, aggregate) in a flat arena, so the state is
/// compact: a count, one integer-or-double running sum, MIN/MAX's running
/// extreme inline (a side allocation measurably slowed the MAX path), and
/// MEDIAN's samples behind a pointer allocated on first use. Copies are
/// deep; a moved-from accumulator may only be destroyed or assigned to.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggKind kind);
  AggAccumulator(const AggAccumulator& other);
  AggAccumulator& operator=(const AggAccumulator& other);
  AggAccumulator(AggAccumulator&&) noexcept = default;
  AggAccumulator& operator=(AggAccumulator&&) noexcept = default;
  ~AggAccumulator() = default;

  /// Feeds the argument values of one input row, by arity: Add0 for
  /// COUNT(*), Add1 for the unary aggregates, Add2 for AVG-final's
  /// (sum, count) pair. Callers pass values straight from the input row.
  void Add0();
  void Add1(const Value& v);
  void Add2(const Value& a, const Value& b);

  /// Folds another accumulator of the same kind into this one, as if every
  /// row fed to `other` had been fed here. This is the execution-time
  /// counterpart of the coalescing combines (transform/coalescing): COUNT
  /// partials merge by summation with COUNT's empty-input-is-0 semantics
  /// (the AggKind::kCountSum rule), SUM/AVG partials by summation (exact on
  /// the all-integer path, so integer merges are order-independent), MIN/MAX
  /// by comparison. MEDIAN is not decomposable but is exactly mergeable by
  /// concatenating the kept samples. The parallel hash aggregate merges
  /// thread-local partial states with this.
  void Merge(const AggAccumulator& other);

  /// The aggregate value of everything fed so far. Empty groups cannot occur
  /// (a group exists only if at least one row was fed).
  Value Finish() const;

 private:
  /// Leaves the exact integer sum for a double one (SUM/AVG/COUNT-SUM).
  void PromoteSum();

  AggKind kind_;
  bool all_int_ = true;     // SUM/AVG/COUNT-SUM: the sum is still isum_
  bool has_value_ = false;  // MIN/MAX: extreme_ holds an input
  int64_t count_ = 0;       // non-NULL inputs; AVG-final's denominator
  union {
    int64_t isum_ = 0;  // exact sum while every input was INT64
    double sum_;        // otherwise, and AVG-final's numerator
  };
  Value extreme_;  // MIN/MAX running value
  std::unique_ptr<std::vector<double>> samples_;  // MEDIAN keeps its inputs
};

static_assert(sizeof(AggAccumulator) <= 48,
              "AggAccumulator is stored per (group, aggregate); keep it small");

}  // namespace aggview

#endif  // AGGVIEW_EXPR_AGGREGATE_H_
