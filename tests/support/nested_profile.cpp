#include "support/nested_profile.h"

#include <cassert>
#include <stdexcept>

namespace mcdc::core {

ClusterProfile::ClusterProfile(const std::vector<int>& cardinalities)
    : counts_(cardinalities.size()), non_null_(cardinalities.size(), 0) {
  for (std::size_t r = 0; r < cardinalities.size(); ++r) {
    counts_[r].assign(static_cast<std::size_t>(cardinalities[r]), 0);
  }
}

void ClusterProfile::add(const data::DatasetView& ds, std::size_t i) {
  const std::size_t d = counts_.size();
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = ds.at(i, r);
    if (v < 0 || static_cast<std::size_t>(v) >= counts_[r].size()) continue;
    ++counts_[r][static_cast<std::size_t>(v)];
    ++non_null_[r];
  }
  ++size_;
}

void ClusterProfile::remove(const data::DatasetView& ds, std::size_t i) {
  assert(size_ > 0);
  const std::size_t d = counts_.size();
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = ds.at(i, r);
    if (v < 0 || static_cast<std::size_t>(v) >= counts_[r].size()) continue;
    --counts_[r][static_cast<std::size_t>(v)];
    --non_null_[r];
  }
  --size_;
}

double ClusterProfile::value_similarity(std::size_t r, data::Value v) const {
  // Out-of-domain codes (kMissing included) score as missing; without the
  // clamp a raw similarity(row) caller holding an unseen category would
  // read past the histogram row.
  if (v < 0 || static_cast<std::size_t>(v) >= counts_[r].size()) return 0.0;
  const int denom = non_null_[r];
  if (denom == 0) return 0.0;
  return static_cast<double>(counts_[r][static_cast<std::size_t>(v)]) /
         static_cast<double>(denom);
}

double ClusterProfile::similarity(const data::DatasetView& ds,
                                  std::size_t i) const {
  const std::size_t d = counts_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += value_similarity(r, ds.at(i, r));
  }
  return sum / static_cast<double>(d);
}

double ClusterProfile::similarity(const data::Value* row) const {
  const std::size_t d = counts_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += value_similarity(r, row[r]);
  }
  return sum / static_cast<double>(d);
}

ClusterProfile ClusterProfile::from_counts(
    std::vector<std::vector<int>> counts, int size) {
  ClusterProfile profile;
  profile.size_ = size;
  profile.non_null_.assign(counts.size(), 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    int total = 0;
    for (const int c : counts[r]) total += c;
    profile.non_null_[r] = total;
  }
  profile.counts_ = std::move(counts);
  return profile;
}

double ClusterProfile::weighted_similarity(
    const data::DatasetView& ds, std::size_t i,
    const std::vector<double>& weights) const {
  const std::size_t d = counts_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += weights[r] * value_similarity(r, ds.at(i, r));
  }
  return sum;
}

std::vector<data::Value> ClusterProfile::mode() const {
  std::vector<data::Value> modes(counts_.size(), data::kMissing);
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    int best = 0;
    for (std::size_t v = 0; v < counts_[r].size(); ++v) {
      if (counts_[r][v] > best) {
        best = counts_[r][v];
        modes[r] = static_cast<data::Value>(v);
      }
    }
  }
  return modes;
}

std::vector<ClusterProfile> build_profiles(const data::DatasetView& ds,
                                           const std::vector<int>& assignment,
                                           int k) {
  if (assignment.size() != ds.num_objects()) {
    throw std::invalid_argument("build_profiles: assignment size mismatch");
  }
  std::vector<ClusterProfile> profiles(
      static_cast<std::size_t>(k), ClusterProfile(ds.cardinalities()));
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const int c = assignment[i];
    if (c < 0) continue;
    if (c >= k) throw std::invalid_argument("build_profiles: label out of range");
    profiles[static_cast<std::size_t>(c)].add(ds, i);
  }
  return profiles;
}

}  // namespace mcdc::core
