#include "expr/aggregate.h"

#include <algorithm>
#include <cassert>

namespace aggview {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMedian:
      return "median";
    case AggKind::kAvgFinal:
      return "avg_final";
    case AggKind::kCountSum:
      return "count_sum";
  }
  return "?";
}

bool IsDecomposable(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kAvg:
    case AggKind::kAvgFinal:
    case AggKind::kCountSum:
      return true;
    case AggKind::kMedian:
      return false;
  }
  return false;
}

bool IsDuplicateInsensitive(AggKind kind) {
  return kind == AggKind::kMin || kind == AggKind::kMax;
}

DataType AggregateCall::ResultType(const ColumnCatalog& cat) const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kCountSum:
      return DataType::kInt64;
    case AggKind::kAvg:
    case AggKind::kAvgFinal:
    case AggKind::kMedian:
      return DataType::kDouble;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      assert(!args.empty());
      return cat.type(args[0]);
  }
  return DataType::kDouble;
}

std::string AggregateCall::ToString(const ColumnCatalog& cat) const {
  if (kind == AggKind::kCountStar) return "count(*)";
  std::string inner;
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) inner += ", ";
    inner += cat.name(args[i]);
  }
  std::string name = AggKindName(kind);
  return name + "(" + inner + ")";
}

AggAccumulator::AggAccumulator(AggKind kind) : kind_(kind) {
  if (kind_ == AggKind::kAvgFinal) {
    all_int_ = false;
    sum_ = 0.0;
  }
}

AggAccumulator::AggAccumulator(const AggAccumulator& other)
    : kind_(other.kind_),
      all_int_(other.all_int_),
      has_value_(other.has_value_),
      count_(other.count_),
      extreme_(other.extreme_) {
  if (all_int_) {
    isum_ = other.isum_;
  } else {
    sum_ = other.sum_;
  }
  if (other.samples_ != nullptr) {
    samples_ = std::make_unique<std::vector<double>>(*other.samples_);
  }
}

AggAccumulator& AggAccumulator::operator=(const AggAccumulator& other) {
  if (this != &other) *this = AggAccumulator(other);
  return *this;
}

void AggAccumulator::PromoteSum() {
  if (!all_int_) return;
  double total = static_cast<double>(isum_);
  sum_ = total;
  all_int_ = false;
}

void AggAccumulator::Add0() {
  // Only COUNT(*) is nullary: it counts rows regardless of values.
  assert(kind_ == AggKind::kCountStar);
  ++count_;
}

void AggAccumulator::Add1(const Value& v) {
  // SQL: aggregates (other than COUNT(*)) ignore NULL inputs.
  if (kind_ != AggKind::kCountStar && v.is_null()) return;
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      ++count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kCountSum: {
      ++count_;
      if (v.is_int() && all_int_) {
        isum_ += v.AsInt();
      } else {
        PromoteSum();
        sum_ += v.AsNumeric();
      }
      return;
    }
    case AggKind::kMin: {
      if (!has_value_ || v < extreme_) extreme_ = v;
      has_value_ = true;
      return;
    }
    case AggKind::kMax: {
      if (!has_value_ || extreme_ < v) extreme_ = v;
      has_value_ = true;
      return;
    }
    case AggKind::kMedian: {
      if (samples_ == nullptr) {
        samples_ = std::make_unique<std::vector<double>>();
      }
      samples_->push_back(v.AsNumeric());
      return;
    }
    case AggKind::kAvgFinal:
      assert(false && "AVG-final takes two arguments");
      return;
  }
}

void AggAccumulator::Add2(const Value& a, const Value& b) {
  assert(kind_ == AggKind::kAvgFinal);
  if (a.is_null() || b.is_null()) return;
  sum_ += a.AsNumeric();
  count_ += b.AsInt();
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  assert(kind_ == other.kind_);
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count_ += other.count_;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kCountSum: {
      count_ += other.count_;
      if (all_int_ && other.all_int_) {
        isum_ += other.isum_;
      } else {
        double theirs =
            other.all_int_ ? static_cast<double>(other.isum_) : other.sum_;
        PromoteSum();
        sum_ += theirs;
      }
      return;
    }
    case AggKind::kMin:
      if (other.has_value_ && (!has_value_ || other.extreme_ < extreme_)) {
        extreme_ = other.extreme_;
        has_value_ = true;
      }
      return;
    case AggKind::kMax:
      if (other.has_value_ && (!has_value_ || extreme_ < other.extreme_)) {
        extreme_ = other.extreme_;
        has_value_ = true;
      }
      return;
    case AggKind::kMedian:
      if (other.samples_ == nullptr) return;
      if (samples_ == nullptr) {
        samples_ = std::make_unique<std::vector<double>>(*other.samples_);
      } else {
        samples_->insert(samples_->end(), other.samples_->begin(),
                         other.samples_->end());
      }
      return;
    case AggKind::kAvgFinal:
      sum_ += other.sum_;
      count_ += other.count_;
      return;
  }
}

Value AggAccumulator::Finish() const {
  // SQL: every aggregate except COUNT yields NULL when no (non-NULL) input
  // was fed — the scalar-aggregate-over-empty-input case and groups whose
  // argument column was entirely NULL (outer-join padding).
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return all_int_ ? Value::Int(isum_) : Value::Real(sum_);
    case AggKind::kCountSum:
      // Combine of partial counts: empty input is a count of 0, not NULL.
      return all_int_ ? Value::Int(isum_) : Value::Real(sum_);
    case AggKind::kAvg: {
      if (count_ == 0) return Value::Null();
      double total = all_int_ ? static_cast<double>(isum_) : sum_;
      return Value::Real(total / static_cast<double>(count_));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (!has_value_) return Value::Null();
      return extreme_;
    case AggKind::kMedian: {
      if (samples_ == nullptr || samples_->empty()) return Value::Null();
      std::vector<double> s = *samples_;
      std::sort(s.begin(), s.end());
      size_t n = s.size();
      double m = (n % 2 == 1) ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
      return Value::Real(m);
    }
    case AggKind::kAvgFinal:
      if (count_ == 0) return Value::Null();
      return Value::Real(sum_ / static_cast<double>(count_));
  }
  return Value::Real(0.0);
}

}  // namespace aggview
