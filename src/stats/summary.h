// Mean / standard deviation accumulation for repeated experiment runs
// (Table III reports mean +/- std over 50 runs).
#pragma once

#include <cstddef>
#include <vector>

namespace mcdc::stats {

class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  // Population standard deviation (the convention of the paper's "+/-").
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Welford accumulator
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean_of(const std::vector<double>& xs);
double stddev_of(const std::vector<double>& xs);

// Nearest-rank percentile of an unsorted sample (taken by value and
// partially reordered with nth_element): rank = ceil(p * N) - 1, so p99 of
// 100 samples is the 99th order statistic, not the maximum. 0 when the
// sample is empty.
double percentile(std::vector<double> sample, double p);

}  // namespace mcdc::stats
