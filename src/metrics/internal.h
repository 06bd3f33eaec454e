// Internal (ground-truth-free) cluster validity for categorical partitions.
//
// The paper evaluates with external indices because its benchmark datasets
// carry class labels; real deployments of MCDC (node grouping, data
// pre-partitioning, k selection) have no labels, so the library also ships
// internal indices defined directly on the categorical table:
//
//   - compactness: mean frequency-based object-to-own-cluster similarity
//     (the quantity MGCPL's objective Eq. (3) maximises);
//   - separation: mean Hamming distance between cluster modes;
//   - categorical silhouette: Hamming silhouette computed against cluster
//     value-histograms, O(n d k) additions instead of the naive O(n^2 d);
//   - category utility: the COBWEB/CLASSIT partition score
//     CU = (1/k) sum_l P(C_l) sum_{r,v} [P(v | C_l)^2 - P(v)^2];
//   - a Davies-Bouldin analogue on mode distances (lower is better).
//
// All functions take the data table plus dense labels in [0, k) and ignore
// missing cells the same NULL-aware way as the core similarity (Sec. II-A).
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::metrics {

// Per-cluster per-feature value-frequency histograms — the sufficient
// statistic every internal index here is computed from. Stored as one flat
// bank in core::ProfileSet's value-major layout,
// counts_[(offset[r] + v) * k + l], filled by stride-1 column sweeps over
// the dataset bank; the k counts of a fixed (feature, value) cell sit on
// one cache line for the per-object mean_distance sweeps.
class PartitionProfile {
 public:
  PartitionProfile(const data::DatasetView& ds, const std::vector<int>& labels);

  int num_clusters() const { return k_; }
  std::size_t cluster_size(int l) const { return sizes_[l]; }

  // |{i in C_l : x_ir = v}|.
  int count(int l, std::size_t r, data::Value v) const {
    return counts_[cell(r, v) + static_cast<std::size_t>(l)];
  }
  // Bank index of cluster 0's slot for (feature r, value v); cluster l's
  // slot follows at + l. Banks laid out like the counts (bank_size()
  // entries) index through this too.
  std::size_t cell(std::size_t r, data::Value v) const {
    return (offsets_[r] + static_cast<std::size_t>(v)) *
           static_cast<std::size_t>(k_);
  }
  std::size_t bank_size() const { return counts_.size(); }
  // |{i in C_l : x_ir != NULL}|.
  int non_null(int l, std::size_t r) const {
    return non_null_[r * static_cast<std::size_t>(k_) +
                     static_cast<std::size_t>(l)];
  }

  // Mode (most frequent value, ties to the smaller code) of feature r in
  // cluster l; kMissing when the cluster has no observed value there.
  data::Value mode(int l, std::size_t r) const;

  // Mean per-feature mismatch probability between object row and cluster l:
  // (1/d) sum_r (1 - P(x_ir | C_l)); the histogram form of the mean Hamming
  // distance from the object to the cluster's members. `exclude_self` makes
  // the estimate leave-one-out (required by the silhouette's a(i) term).
  double mean_distance(const data::DatasetView& ds, std::size_t i, int l,
                       bool exclude_self) const;

 private:
  int k_ = 0;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;  // offsets_[r] = sum of m_t, t < r
  std::vector<int> counts_;           // [(offset[r] + v) * k + l]
  std::vector<int> non_null_;         // [r * k + l]
};

// Mean over objects of the Sec. II-A similarity to their own cluster.
// Range [0, 1], higher = tighter clusters.
double compactness(const data::DatasetView& ds, const std::vector<int>& labels);

// Mean normalised Hamming distance between all pairs of cluster modes.
// Range [0, 1], higher = better separated. 0 when k < 2.
double mode_separation(const data::DatasetView& ds, const std::vector<int>& labels);

// Histogram-based categorical silhouette, averaged over objects. Range
// [-1, 1]; objects in singleton clusters contribute 0 (sklearn convention).
//
// a(i) is the leave-one-out mean_distance to the object's own cluster.
// b(i), the smallest mean_distance to any other non-empty cluster, needs
// no per-term division: a mismatch bank built once per partition holds
// term[cell(r, v) + l] = 1 - count / non_null, computed with the
// same int-to-double division mean_distance performs (0.0 where non_null
// is 0, which mean_distance skips). A row's k sums are then one
// simd::score_row_f64 sweep over the bank cells of its present features,
// r ascending into a +0.0 accumulator, with denominator 1.0 (exact). Bit
// identity with the per-cluster mean_distance loop holds because every
// term is bit-equal, the order of additions is the same, and adding +0.0
// for a skipped term leaves a non-negative sum unchanged. Each sum is
// then divided by its compared count: the present features less those
// the cluster never observes (per-feature lists, empty on data without
// missing cells). Rows fan out over parallel_chunks and write only their
// own slots (+0.0 for objects that contribute nothing, which leaves the
// total unchanged); the total runs in ascending object order. The result
// is therefore bit-identical at every pool width and SIMD dispatch level.
double categorical_silhouette(const data::DatasetView& ds,
                              const std::vector<int>& labels);

// Category utility of the partition. Higher is better; 0 for k = 1 and for
// clusters that match the global value distribution.
double category_utility(const data::DatasetView& ds,
                        const std::vector<int>& labels);

// Davies-Bouldin analogue: mean over clusters of the worst
// (scatter_l + scatter_t) / mode_distance(l, t) ratio, with scatter the
// mean member-to-mode Hamming distance. Lower is better; +inf when two
// cluster modes coincide; 0 when k < 2.
double davies_bouldin_modes(const data::DatasetView& ds,
                            const std::vector<int>& labels);

struct InternalScores {
  double compactness = 0.0;
  double separation = 0.0;
  double silhouette = 0.0;
  double category_utility = 0.0;
  double davies_bouldin = 0.0;
};

// All internal indices in one call: the PartitionProfile and the cluster
// modes are built once and shared by the five indices, with results bit-
// identical to calling each index on its own.
InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels);

}  // namespace mcdc::metrics
