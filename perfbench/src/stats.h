// Sample statistics for the benchmark: exact nearest-rank percentiles,
// a mergeable log-linear latency histogram, and the open-loop due-time
// schedule.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in [0, 100]) of a sample: the smallest value
// with at least p% of the sample at or below it. 0 for an empty sample.
inline double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 50.0);
}

// Latency histogram over integer nanoseconds with log-linear buckets:
// 2^kSubBits linear sub-buckets per power of two, so any recorded value is
// reported within a relative error of 2^-kSubBits (under 0.8%). Every
// sample is kept (as a count), histograms merge by adding counts, and the
// memory is fixed (~36 KB), so a generator and a collector thread can each
// fill their own and merge at the end.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExponent = 42;  // values up to ~73 minutes

  void record_ns(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++counts_[bucket(v)];
    ++count_;
    max_ns_ = std::max(max_ns_, v);
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }

  std::uint64_t count() const { return count_; }

  // Nearest-rank percentile in microseconds: the midpoint of the bucket
  // holding the rank-th smallest sample (clamped to the largest sample).
  double percentile_us(double p) const {
    if (count_ == 0) return 0.0;
    const double rank_d = std::ceil(p / 100.0 * static_cast<double>(count_));
    const std::uint64_t rank =
        rank_d < 1.0 ? 1 : static_cast<std::uint64_t>(rank_d);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const double lo = static_cast<double>(lower(i));
        const double hi = static_cast<double>(lower(i + 1));
        const double mid = std::min(0.5 * (lo + hi - 1.0),
                                    static_cast<double>(max_ns_));
        return mid / 1e3;
      }
    }
    return static_cast<double>(max_ns_) / 1e3;
  }

 private:
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kSubBits + 2) * kSub;

  // Values below kSub map 1:1; above, the top kSubBits+1 significant bits
  // select the bucket.
  static std::size_t bucket(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kSub)) {
      return static_cast<std::size_t>(v);
    }
    const int exponent = std::bit_width(v) - 1;  // >= kSubBits
    if (exponent > kMaxExponent) return kBuckets - 1;
    const int shift = exponent - kSubBits;
    const std::uint64_t mantissa = (v >> shift) - kSub;  // in [0, kSub)
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>(mantissa);
  }

  // Smallest value of bucket i (the inverse of bucket()).
  static std::uint64_t lower(std::size_t i) {
    const std::size_t group = i / kSub;
    const std::uint64_t offset = i % kSub;
    if (group == 0) return offset;
    return (static_cast<std::uint64_t>(kSub) + offset) << (group - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
  std::uint64_t max_ns_ = 0;
};

// Open-loop arrival schedule at a fixed absolute rate: request i is due
// i * 1e9 / rate nanoseconds after the start. Computed in integers from i
// (never by accumulating an interval), so the schedule does not drift and
// request `rate` is due exactly one second in.
inline std::int64_t due_offset_ns(std::uint64_t i, std::uint64_t rate_per_s) {
  const std::uint64_t whole = i / rate_per_s;
  const std::uint64_t rest = i % rate_per_s;
  return static_cast<std::int64_t>(whole * 1'000'000'000ULL +
                                   rest * 1'000'000'000ULL / rate_per_s);
}

}  // namespace perfbench
