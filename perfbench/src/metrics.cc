#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench {

int64_t NearestRankIndex(int64_t n, double p) {
  if (n <= 0) return 0;
  auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

bool PercentileReportable(int64_t n, double p) {
  if (n <= 0) return false;
  if (p <= 0.5) return true;
  return n - 1 - NearestRankIndex(n, p) >= kSamplesBeyond;
}

double HighestReportablePercentile(int64_t n) {
  if (n <= 0) return 0.0;
  return std::max(0.5, static_cast<double>(n - kSamplesBeyond) /
                           static_cast<double>(n));
}

std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           double p) {
  const auto n = static_cast<int64_t>(samples.size());
  if (!PercentileReportable(n, p)) return std::nullopt;
  const int64_t idx = NearestRankIndex(n, p);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[static_cast<size_t>(idx)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A double rounded to nine significant digits, as (mantissa, exponent).
uint64_t HashDouble(double v) {
  if (v == 0.0 || !std::isfinite(v)) return Mix(std::hash<double>{}(v + 0.0));
  int exp10 = static_cast<int>(std::floor(std::log10(std::fabs(v))));
  auto mantissa = std::llround(v / std::pow(10.0, exp10 - 8));
  if (std::llabs(mantissa) >= 1'000'000'000LL) {
    ++exp10;
    mantissa = std::llround(v / std::pow(10.0, exp10 - 8));
  }
  return Mix(static_cast<uint64_t>(mantissa) * 31 +
             static_cast<uint64_t>(exp10 + 400));
}

uint64_t HashValue(const aggview::Value& v) {
  if (v.is_null()) return Mix(1);
  if (v.is_int()) return Mix(static_cast<uint64_t>(v.AsInt()) ^ 0x1234);
  if (v.is_double()) return HashDouble(v.AsDouble());
  return Mix(std::hash<std::string>{}(v.AsString()));
}

}  // namespace

ResultDigest DigestOf(const aggview::QueryResult& result) {
  ResultDigest digest;
  for (const aggview::Row& row : result.rows) {
    uint64_t h = 0x51ed270b27a1f2c3ULL;
    for (const aggview::Value& v : row) h = Mix(h ^ HashValue(v));
    ++digest.rows;
    digest.sum += h;
    digest.sum_sq += Mix(h) * (h | 1);
  }
  return digest;
}

std::string ResultDigest::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "rows=%lld digest=%016llx%016llx",
                static_cast<long long>(rows),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(sum_sq));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace perfbench
