// perfbench/src/report.hpp
//
// The arithmetic behind the reported numbers: nearest-rank percentiles
// with their sample counts, the per-interval window statistics, and the
// ratio metrics.  Header-only so the benchmark's tests compile it directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least a share `q`
/// of all samples at or below it.  Sorts `xs`.  NaN when empty.
template <typename T>
double nearest_rank(std::vector<T>& xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return static_cast<double>(xs[std::min(rank == 0 ? 0 : rank - 1, xs.size() - 1)]);
}

/// The share of intervals on the calm side that a window statistic
/// takes: the lower quartile of per-interval latencies, the upper
/// quartile of per-interval throughput.  A shared host steals CPU for
/// seconds at a time; a quartile on the calm side still reads the
/// intervals it spared, where a median of a run that lost half its
/// intervals does not.
inline constexpr double kCalmQuartile = 0.25;

/// Median (mean of the two middle values for an even count).  NaN when
/// empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

struct Tail {
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;      ///< samples in all
  std::size_t intervals = 0;  ///< intervals whose percentiles were used
};

/// Latency samples of one op type, bucketed by the fixed interval of the
/// measured window in which each op completed.  Each percentile is
/// reported as the calm-side quartile (kCalmQuartile) of its
/// per-interval values.
class IntervalLatencies {
 public:
  /// An interval counts only with this many samples, so that at least
  /// ten lie beyond its p99.
  static constexpr std::size_t kMinSamples = 1000;

  explicit IntervalLatencies(std::size_t intervals) : buckets_(intervals) {}

  void add(std::size_t interval, float us) { buckets_.at(interval).push_back(us); }

  void merge(const IntervalLatencies& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto& src = other.buckets_.at(i);
      buckets_[i].insert(buckets_[i].end(), src.begin(), src.end());
    }
  }

  /// Each percentile as the lower quartile of its per-interval values
  /// over the intervals holding at least kMinSamples samples; over all
  /// samples when no interval holds that many.
  [[nodiscard]] Tail tail() const {
    constexpr double kQ[] = {0.50, 0.90, 0.95, 0.99};
    std::vector<float> all;
    std::vector<double> per_interval[4];
    for (const auto& bucket : buckets_) {
      all.insert(all.end(), bucket.begin(), bucket.end());
      if (bucket.size() < kMinSamples) continue;
      std::vector<float> copy = bucket;
      for (int i = 0; i < 4; ++i) per_interval[i].push_back(nearest_rank(copy, kQ[i]));
    }
    double out[4];
    for (int i = 0; i < 4; ++i) {
      out[i] = per_interval[i].empty() ? nearest_rank(all, kQ[i])
                                       : nearest_rank(per_interval[i], kCalmQuartile);
    }
    Tail t;
    t.count = all.size();
    t.intervals = per_interval[0].size();
    t.p50 = out[0];
    t.p90 = out[1];
    t.p95 = out[2];
    t.p99 = out[3];
    return t;
  }

 private:
  std::vector<std::vector<float>> buckets_;
};

/// Bytes stored per byte of user data: total ÷ (total − metadata).
inline double space_amp(std::size_t total_bytes, std::size_t metadata_bytes) {
  if (total_bytes <= metadata_bytes) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(total_bytes) /
         static_cast<double>(total_bytes - metadata_bytes);
}

/// failed ÷ attempted; NaN when nothing was attempted.
inline double error_rate(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
