#ifndef AGGVIEW_TYPES_VALUE_H_
#define AGGVIEW_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"

namespace aggview {

/// A single column value. Per the paper's Section 2 assumptions base tables
/// contain no NULLs; the null state exists for the outer-join extension
/// (footnote 3: flattening nested subqueries "may introduce outerjoins"),
/// whose padding rows carry NULLs into intermediate results.
///
/// Comparison across the two numeric types promotes to double, which is what
/// the expression evaluator relies on for predicates like `e.sal > b.asal`
/// where one side is an AVG (double) and the other an INT64 column.
///
/// NULL semantics: Compare() defines a total order with NULL first and
/// NULL == NULL (the grouping/sorting convention); *predicates* implement
/// the SQL convention separately — any comparison involving NULL is false
/// (see Predicate::Eval).
///
/// Layout: 16 bytes, a one-byte type tag beside an 8-byte payload that is
/// an int64_t, a double, or a pointer to an immutable string block
/// {reference count, text}. Every cell of a table, batch row, hash key and
/// result row is one of these, so the payload is kept to one word.
///
/// String ownership: the text of a string cell never changes once built.
/// Copying a string cell copies the pointer and adds a reference; the last
/// copy destroyed frees the block. A copy therefore keeps its text alive
/// after the table it came from deletes or rebuilds its rows (DeleteRows,
/// REFRESH), with no arena tied to a table. The count is atomic, so copies
/// of one cell may be made and destroyed on different threads at once (the
/// worker pool does); the text itself is only read. A moved-from Value is
/// Int(0).
class Value {
 public:
  Value() : rep_{.i = 0} {}
  explicit Value(int64_t v) : rep_{.i = v} {}
  explicit Value(double v) : rep_{.d = v}, tag_(Tag::kDouble) {}
  explicit Value(std::string v)
      : rep_{.s = new StringBlock(std::move(v))}, tag_(Tag::kString) {}

  Value(const Value& other) noexcept : rep_(other.rep_), tag_(other.tag_) {
    Retain();
  }
  Value(Value&& other) noexcept : rep_(other.rep_), tag_(other.tag_) {
    other.Reset();
  }
  Value& operator=(const Value& other) noexcept {
    other.Retain();  // first, so self-assignment keeps the block alive
    Release();
    rep_ = other.rep_;
    tag_ = other.tag_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      rep_ = other.rep_;
      tag_ = other.tag_;
      other.Reset();
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }
  static Value Null() {
    Value v;
    v.tag_ = Tag::kNull;
    return v;
  }

  DataType type() const {
    switch (tag_) {
      case Tag::kInt:
        return DataType::kInt64;
      case Tag::kDouble:
        return DataType::kDouble;
      default:
        return DataType::kString;
    }
  }

  bool is_int() const { return tag_ == Tag::kInt; }
  bool is_double() const { return tag_ == Tag::kDouble; }
  bool is_string() const { return tag_ == Tag::kString; }
  bool is_null() const { return tag_ == Tag::kNull; }

  /// The payload as the named type; the value must hold that type.
  int64_t AsInt() const { return rep_.i; }
  double AsDouble() const { return rep_.d; }
  const std::string& AsString() const { return rep_.s->text; }

  /// Numeric view: INT64 and DOUBLE both convert. A string or NULL value has
  /// no numeric view and yields quiet NaN — a visible poison value rather
  /// than a crash; callers that can report errors should use
  /// CheckedNumeric() instead.
  double AsNumeric() const;

  /// Numeric view with an explicit error when the value is not numeric.
  Result<double> CheckedNumeric() const;

  /// Three-way comparison: <0, 0, >0. Numeric types compare by value with
  /// promotion; strings compare lexicographically. Comparing a string with a
  /// numeric value is a caller bug (the binder rejects such predicates), but
  /// instead of crashing the order falls back to by-type ranking
  /// (numerics < strings) so sorting/grouping stays a total order; callers
  /// that can report errors should use CheckedCompare() instead.
  int Compare(const Value& other) const;

  /// Compare with an explicit error on a string-vs-numeric mismatch.
  Result<int> CheckedCompare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// SQL-literal-ish rendering, e.g. 42, 3.5, 'abc'.
  std::string ToString() const;

  /// Hash compatible with operator== (numeric 3.0 and integer 3 hash alike).
  size_t Hash() const;

 private:
  enum class Tag : uint8_t { kInt, kDouble, kString, kNull };

  /// A string cell's shared text. `refs` counts the Values pointing here.
  struct StringBlock {
    explicit StringBlock(std::string t) : text(std::move(t)) {}
    std::atomic<uint32_t> refs{1};
    const std::string text;
  };

  /// Adds a reference; no ordering is needed, as the caller already sees
  /// the block through the Value it copies.
  void Retain() const noexcept {
    if (tag_ == Tag::kString) {
      rep_.s->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Drops a reference; the last one frees the block. acq_rel orders every
  /// other holder's reads of the text before the delete.
  void Release() noexcept {
    if (tag_ == Tag::kString &&
        rep_.s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_.s;
    }
  }
  void Reset() noexcept {
    rep_.i = 0;
    tag_ = Tag::kInt;
  }

  union {
    int64_t i;
    double d;
    StringBlock* s;
  } rep_;
  Tag tag_ = Tag::kInt;
};

static_assert(sizeof(Value) == 16,
              "Value is every cell, key and result field; keep it two words");

/// A row is a flat vector of values positionally aligned with some schema.
using Row = std::vector<Value>;

/// Hashes a whole row (for hash joins / hash aggregation).
size_t HashRow(const Row& row);

/// Hash/equality functors over rows for unordered containers.
struct RowHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace aggview

#endif  // AGGVIEW_TYPES_VALUE_H_
