#include "catalog/statistics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string_view>
#include <unordered_set>

#include "storage/table.h"

namespace aggview {

double Histogram::FractionBelow(double x) const {
  if (bounds.empty()) return 0.0;
  if (x <= min) return 0.0;
  if (x > bounds.back()) return 1.0;
  double per_bucket = 1.0 / static_cast<double>(bounds.size());
  double lo = min;
  for (size_t i = 0; i < bounds.size(); ++i) {
    double hi = bounds[i];
    if (x <= hi) {
      double within =
          hi > lo ? (x - lo) / (hi - lo) : 1.0;  // point bucket: all below
      return per_bucket * (static_cast<double>(i) + within);
    }
    lo = hi;
  }
  return 1.0;
}

namespace {

// Order-preserving 8-byte keys: two keys of the same kind compare as
// unsigned integers exactly as their values compare. An INT64 key is the
// exact integer with its sign bit flipped; a DOUBLE key is its bit pattern
// with the sign bit flipped for non-negatives and every bit flipped for
// negatives, so -0.0 (normalized to 0.0 first) and 0.0 share one key.
constexpr uint64_t kSignBit = uint64_t{1} << 63;

uint64_t IntKey(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }
int64_t IntOfKey(uint64_t key) { return static_cast<int64_t>(key ^ kSignBit); }

uint64_t DoubleKey(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and 0.0 are one value
  uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}
double DoubleOfKey(uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
}

/// Three-way comparison of an integer with a double, exact where promoting
/// the integer would round (2^53 + 1 is above 2^53). A NaN orders as its key
/// does: beyond the infinity of its sign.
int CompareExact(int64_t i, double d) {
  if (std::isnan(d)) return std::signbit(d) ? 1 : -1;
  if (d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  double whole = std::trunc(d);
  int64_t w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return whole < d ? -1 : (whole > d ? 1 : 0);
}

/// Whether two keys (each an INT64 or a DOUBLE key) hold the same number.
bool SameValue(bool a_is_int, uint64_t a, bool b_is_int, uint64_t b) {
  if (a_is_int == b_is_int) return a == b;
  return a_is_int ? CompareExact(IntOfKey(a), DoubleOfKey(b)) == 0
                  : CompareExact(IntOfKey(b), DoubleOfKey(a)) == 0;
}

/// Sorts keys[0, n) ascending: an LSD radix sort over 11-bit digits that
/// skips every digit on which all keys agree (a small integer domain sorts
/// in one or two passes). `buffer` is scratch.
void SortKeys(uint64_t* keys, size_t n, std::vector<uint64_t>* buffer) {
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  uint64_t varying = 0;
  for (size_t i = 0; i < n; ++i) varying |= keys[i] ^ keys[0];
  buffer->resize(std::max(buffer->size(), n));
  uint64_t* src = keys;
  uint64_t* dst = buffer->data();
  std::array<size_t, kDigitMask + 1> count;
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) continue;
    count.fill(0);
    for (size_t i = 0; i < n; ++i) ++count[(src[i] >> shift) & kDigitMask];
    size_t offset = 0;
    for (size_t& c : count) {
      size_t here = c;
      c = offset;
      offset += here;
    }
    for (size_t i = 0; i < n; ++i) {
      uint64_t k = src[i];
      dst[count[(k >> shift) & kDigitMask]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys) std::copy(src, src + n, keys);
}

/// One column's sort keys and their radix buffer, reused by the next
/// numeric column of the same table: faulting in fresh pages for every
/// column costs more than a radix pass.
struct KeyScratch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> buffer;
};

/// Computes one column's statistics. One pass over its cells gathers an
/// order-preserving key per numeric value — integers into the front of
/// `keys`, doubles into the back, whatever the declared type — and inserts
/// each string into a set of views into the column, which counts by content.
/// Each key region is sorted once; walking the two regions merged by exact
/// comparison visits the numeric values in ascending order with equal values
/// adjacent, which yields the distinct count, the range and the histogram
/// edges together.
ColumnStats ComputeColumnStats(const std::vector<Value>& column, bool numeric,
                               KeyScratch* scratch) {
  ColumnStats cs;
  const size_t n = column.size();
  std::vector<uint64_t>& keys = scratch->keys;
  size_t num_ints = 0;
  size_t num_doubles = 0;
  std::unordered_set<std::string_view> strings;
  const std::string* min_str = nullptr;
  const std::string* max_str = nullptr;
  for (const Value& v : column) {
    if (v.is_int() || v.is_double()) {
      if (keys.size() < n) keys.resize(n);
      if (v.is_int()) {
        keys[num_ints++] = IntKey(v.AsInt());
      } else {
        keys[n - ++num_doubles] = DoubleKey(v.AsDouble());
      }
    } else if (v.is_string()) {
      const std::string& s = v.AsString();
      strings.insert(s);
      if (min_str == nullptr || s < *min_str) min_str = &s;
      if (max_str == nullptr || s > *max_str) max_str = &s;
    } else {
      ++cs.null_count;
    }
  }
  if (min_str != nullptr) {
    cs.has_str_range = true;
    cs.min_str = *min_str;
    cs.max_str = *max_str;
  }

  const size_t doubles = n - num_doubles;  // where the double keys start
  if (num_ints + num_doubles > 0) {
    SortKeys(keys.data(), num_ints, &scratch->buffer);
    SortKeys(keys.data() + doubles, num_doubles, &scratch->buffer);
  }

  // NULLs count toward distinct (one bucket) but contribute no range or
  // histogram mass. A string never equals a number.
  const size_t total = num_ints + num_doubles;
  int64_t distinct = static_cast<int64_t>(strings.size()) +
                     (cs.null_count > 0 ? 1 : 0);
  cs.has_range = numeric && total > 0;
  // Equi-depth histogram: bucket edges at the N-quantiles, the positions
  // values.size() * b / buckets - 1 of the ascending value sequence.
  const size_t buckets =
      cs.has_range && total >= 2 ? std::min<size_t>(kHistogramBuckets, total)
                                 : 0;
  size_t next_bucket = 1;
  size_t i = 0;
  size_t d = 0;
  bool prev_is_int = false;
  uint64_t prev_key = 0;
  for (size_t pos = 0; pos < total; ++pos) {
    bool is_int =
        d == num_doubles ||
        (i < num_ints && CompareExact(IntOfKey(keys[i]),
                                      DoubleOfKey(keys[doubles + d])) <= 0);
    uint64_t key = is_int ? keys[i++] : keys[doubles + d++];
    if (pos == 0 || !SameValue(is_int, key, prev_is_int, prev_key)) {
      ++distinct;
    }
    prev_is_int = is_int;
    prev_key = key;
    if (!cs.has_range) continue;
    double value =
        is_int ? static_cast<double>(IntOfKey(key)) : DoubleOfKey(key);
    if (pos == 0) {
      cs.min = is_int ? LowerBoundOf(IntOfKey(key)) : value;
      if (buckets > 0) cs.histogram.min = value;
    }
    cs.max = value;
    if (next_bucket <= buckets && pos == total * next_bucket / buckets - 1) {
      cs.histogram.bounds.push_back(value);
      ++next_bucket;
    }
  }
  if (cs.has_range && prev_is_int) cs.max = UpperBoundOf(IntOfKey(prev_key));
  cs.distinct = std::max<int64_t>(distinct, 1);
  return cs;
}

}  // namespace

double LowerBoundOf(int64_t v) {
  double d = static_cast<double>(v);
  return CompareExact(v, d) < 0 ? std::nextafter(d, -HUGE_VAL) : d;
}

double UpperBoundOf(int64_t v) {
  double d = static_cast<double>(v);
  return CompareExact(v, d) > 0 ? std::nextafter(d, HUGE_VAL) : d;
}

TableStats ComputeStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.row_count();
  const Schema& schema = table.schema();
  stats.columns.reserve(static_cast<size_t>(schema.num_columns()));
  KeyScratch scratch;
  for (int c = 0; c < schema.num_columns(); ++c) {
    bool numeric = IsNumeric(schema.column(c).type);
    // A string column's set never coexists with a numeric column's keys:
    // at most one column's scratch is alive at a time.
    if (!numeric) scratch = KeyScratch();
    stats.columns.push_back(
        ComputeColumnStats(table.column(c), numeric, &scratch));
  }
  return stats;
}

}  // namespace aggview
