#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace mcdc::stats {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::stddev() const {
  if (count_ == 0) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_));
}

double mean_of(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double stddev_of(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.stddev();
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  const double scaled = p * static_cast<double>(sample.size());
  const auto above = static_cast<std::size_t>(std::ceil(scaled));
  const std::size_t rank = std::min(sample.size() - 1, above - (above > 0));
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

}  // namespace mcdc::stats
