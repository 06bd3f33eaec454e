// Nested per-cluster histogram reference for the tests and bench_kernel.
//
// The library keeps one histogram store, core::ProfileSet. This is the
// straightforward per-cluster form it replaced, kept outside the library
// as the independent reference the flat bank is checked against bitwise
// (test_profile_set, test_similarity) and timed against (bench_kernel's
// frozen_vs_nested ratios). It stays a separate translation unit, so the
// bench measures the same out-of-line scorer it always has.
//
// ClusterProfile maintains, per cluster, the per-feature value-frequency
// histograms that the similarity s(x_i, C_l) of Eq. (1)-(2) is defined on:
//
//   s(x_ir, C_l) = Psi_{Fr = x_ir}(C_l) / Psi_{Fr != NULL}(C_l)     (Eq. 2)
//   s(x_i,  C_l) = (1/d) * sum_r s(x_ir, C_l)                       (Eq. 1)
//
// and the feature-weighted refinement of Eq. (14):
//
//   s_w(x_i, C_l) = sum_r w_rl * s(x_ir, C_l),   sum_r w_rl = 1.
//
// (The paper's Eq. (14) carries an extra global 1/d factor; because the
// weights already sum to one we fold it out so that uniform weights recover
// Eq. (1) exactly — see DESIGN.md §5. Missing values contribute similarity
// zero and are excluded from the NULL-aware denominator, which is how the
// paper runs Mushroom at full size despite its '?' cells.)
//
// Profiles support O(1) incremental add/remove of objects, giving the
// O(d) similarity evaluation the paper's linear-complexity analysis
// (Theorem 1) relies on.
//
// Scoring one object against *many* clusters with a vector<ClusterProfile>
// is cache-hostile (k nested-vector walks per object); core::ProfileSet
// holds all k histograms in one flat bank and batch-scores every cluster in
// a single feature-major sweep with byte-identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

class ClusterProfile {
 public:
  ClusterProfile() = default;
  explicit ClusterProfile(const std::vector<int>& cardinalities);

  // Membership maintenance. Objects are identified by view position (a
  // plain Dataset converts to the identity view).
  void add(const data::DatasetView& ds, std::size_t i);
  void remove(const data::DatasetView& ds, std::size_t i);

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Psi_{Fr = v}(C_l): members holding value v on feature r. Out-of-domain
  // codes (data::kMissing, unseen categories from raw callers that bypass
  // Model::predict_row's sanitising) count as missing: 0.
  int value_count(std::size_t r, data::Value v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= counts_[r].size()) return 0;
    return counts_[r][static_cast<std::size_t>(v)];
  }
  // Psi_{Fr != NULL}(C_l): members with any value on feature r.
  int non_null_count(std::size_t r) const { return non_null_[r]; }

  // Eq. (2); zero for a missing (or out-of-domain) x_ir or an all-NULL
  // feature column.
  double value_similarity(std::size_t r, data::Value v) const;

  // Eq. (1): unweighted mean of per-feature similarities.
  double similarity(const data::DatasetView& ds, std::size_t i) const;

  // Eq. (1) against a bare row of d contiguous values — lets consumers
  // (api::Model::predict, streaming classify) score objects that are not
  // part of a Dataset.
  double similarity(const data::Value* row) const;

  // Eq. (14) with the weight vector of this cluster (size d, sums to 1).
  double weighted_similarity(const data::DatasetView& ds, std::size_t i,
                             const std::vector<double>& weights) const;

  // Most frequent value per feature (ties -> smallest code; -1 when the
  // column is all-NULL). This is the cluster's mode, used by k-modes-style
  // consumers.
  std::vector<data::Value> mode() const;

  const std::vector<std::vector<int>>& counts() const { return counts_; }

  // Restores a profile from per-feature value counts (the inverse of
  // counts()). Per-feature non-null totals are re-derived; `size` is the
  // member count.
  static ClusterProfile from_counts(std::vector<std::vector<int>> counts,
                                    int size);

 private:
  int size_ = 0;
  std::vector<std::vector<int>> counts_;  // [feature][value]
  std::vector<int> non_null_;             // [feature]
};

// Builds one profile per cluster from an assignment vector (-1 entries are
// unassigned and skipped). Cluster ids must lie in [0, k).
std::vector<ClusterProfile> build_profiles(const data::DatasetView& ds,
                                           const std::vector<int>& assignment,
                                           int k);

}  // namespace mcdc::core
