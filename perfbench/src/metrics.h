#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace perfbench {

/// Samples needed strictly beyond a percentile before it may be reported.
inline constexpr int64_t kSamplesBeyond = 10;

/// Nearest-rank index of percentile `p` (in (0, 1]) among `n` sorted samples:
/// ceil(p * n) - 1, clamped to [0, n - 1].
int64_t NearestRankIndex(int64_t n, double p);

/// Whether percentile `p` may be reported from `n` samples: the median (and
/// anything below it) from any non-empty sample, a higher percentile only
/// when at least kSamplesBeyond samples lie beyond its nearest rank.
bool PercentileReportable(int64_t n, double p);

/// The highest percentile (a fraction, at least the median) that may be
/// reported from `n` samples; 0 when there are none.
double HighestReportablePercentile(int64_t n);

/// Nearest-rank percentile of `samples` (any order), or nullopt when the
/// percentile is not reportable from that many samples.
std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           double p);

double Median(std::vector<double> samples);

/// Order-insensitive digest of a result multiset, cheap enough to check
/// every statement of a run. Doubles are hashed after rounding to nine
/// significant digits, the precision QueryResult::Fingerprint renders, so
/// plans that sum in different orders still agree.
struct ResultDigest {
  int64_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;

  bool operator==(const ResultDigest& other) const {
    return rows == other.rows && sum == other.sum && sum_sq == other.sum_sq;
  }
  bool operator!=(const ResultDigest& other) const { return !(*this == other); }
  std::string ToString() const;
};

ResultDigest DigestOf(const aggview::QueryResult& result);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// CPU time (user + system) consumed by this process so far, in seconds.
double ProcessCpuSeconds();

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders `value` as a JSON number with all its digits (%.17g); non-finite
/// values render as 0.
std::string JsonNumber(double value);

/// Escapes `s` for a JSON string body.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
