// ProfileSet — flat Structure-of-Arrays histogram bank for k clusters.
//
// ClusterProfile (similarity.h) stores one cluster's histograms as nested
// vector<vector<int>>, so scoring one object against k clusters walks k
// separately allocated structures — k*d dependent pointer chases. ProfileSet
// holds *all* k clusters' per-feature value counts in one contiguous buffer,
// laid out value-major with a slot stride that can exceed k (spare slots are
// kept zero so append_cluster is amortised O(1) slots instead of a restride
// per spawn):
//
//   counts_[(offset[r] + v) * stride + l]  =  Psi_{Fr = v}(C_l),  l < k
//
// so for a fixed cell value (r, v) the k cluster counts are adjacent: one
// cache line serves the whole cluster sweep, and score_all() inverts the
// usual k x d loop to sweep each feature once across all clusters. This is
// the linear-time object-cluster scoring of the paper's Theorem 1 in the
// layout the hardware wants.
//
// Numerics contract: counts are doubles so the decayed (fractional)
// streaming histograms share the kernel; batch consumers only ever store
// integral values, for which every quotient count/non_null is bit-identical
// to ClusterProfile's int arithmetic. score_all accumulates per-feature
// contributions in ascending feature order — the same order as
// ClusterProfile::similarity — so batched scores (and therefore argmax
// labels) are byte-identical to the per-cluster path, not merely close.
//
// freeze() additionally precomputes every count/non_null quotient once, so
// frozen batched sweeps (Model::predict, refine_to_fixpoint, streaming
// classify, benchmarks) are pure load-multiply-add with no divisions. Each
// cached quotient is produced by the same division the live path performs,
// so frozen scores are bit-identical too. Any mutation thaws the cache.
//
// Out-of-domain codes (anything outside [0, cardinality(r)), data::kMissing
// included) are treated as missing by every accessor and mutator — the same
// clamping Model::predict_row applies — so raw callers can never read or
// write out of bounds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/aligned.h"
#include "core/similarity.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

class ProfileSet {
 public:
  ProfileSet() = default;
  // k empty clusters over the given schema.
  ProfileSet(const std::vector<int>& cardinalities, int k);

  // One histogram bank from an assignment vector (-1 entries skipped,
  // ids must lie in [0, k)). The flat analogue of build_profiles().
  // Accumulates feature-major: one stride-1 sweep over each dataset
  // column writes only that feature's cell block of the bank — the
  // columnar fast path (identity views read Dataset::col pointers
  // directly). Counts are order-independent integral sums, so the bank is
  // bit-identical to row-wise add() accumulation.
  static ProfileSet from_assignment(const data::DatasetView& ds,
                                    const std::vector<int>& assignment, int k);
  // Converts per-cluster profiles (e.g. a deserialised api::Model) into the
  // flat layout. All profiles must share one schema.
  static ProfileSet from_profiles(const std::vector<ClusterProfile>& profiles);

  int num_clusters() const { return k_; }
  std::size_t num_features() const { return cardinalities_.size(); }
  const std::vector<int>& cardinalities() const { return cardinalities_; }

  // Member mass of cluster l (decayed and hence fractional under scale()).
  double size(int l) const { return size_[static_cast<std::size_t>(l)]; }
  bool empty(int l) const { return size_[static_cast<std::size_t>(l)] <= 0.0; }

  // Psi_{Fr = v}(C_l); 0 for out-of-domain v.
  double count(int l, std::size_t r, data::Value v) const {
    if (!in_domain(r, v)) return 0.0;
    return counts_[cell(r, v) * stride_ + static_cast<std::size_t>(l)];
  }
  // Psi_{Fr != NULL}(C_l).
  double non_null(int l, std::size_t r) const {
    return non_null_[r * stride_ + static_cast<std::size_t>(l)];
  }
  // Eq. (2); zero for missing / out-of-domain v or an all-NULL column.
  double value_similarity(int l, std::size_t r, data::Value v) const;

  // O(d) membership maintenance. Out-of-domain cells contribute nothing.
  void add(int l, const data::Value* row);
  void remove(int l, const data::Value* row);
  // remove(from) + add(to) fused into one row pass.
  void move(int from, int to, const data::Value* row);
  // The same maintenance reading view position i directly (no row gather).
  void add(int l, const data::DatasetView& ds, std::size_t i);
  void remove(int l, const data::DatasetView& ds, std::size_t i);
  void move(int from, int to, const data::DatasetView& ds, std::size_t i);
  // Multiplies every count, non-null total and size by `factor`
  // (exponential forgetting of the streaming learner).
  void scale(double factor);

  // Appends an empty cluster and returns its index. Reuses a spare slot
  // when one exists; otherwise grows the slot stride geometrically, so a
  // stream of spawns costs amortised O(sum m_r) each.
  int append_cluster();
  // Zeros cluster l in place, O(sum m_r) — for slot reuse (e.g. streaming
  // eviction), which avoids the O(k * sum m_r) restride of
  // remove_clusters + append_cluster.
  void clear_cluster(int l);
  // Drops every cluster l with dead[l] != 0, compacting the survivors in
  // order. Returns the dense remap: old id -> new id, or -1 when dropped.
  std::vector<int> remove_clusters(const std::vector<char>& dead);

  // Batched Eq. (1): out[l] = s(row, C_l) for every cluster, one
  // feature-major sweep. `out` must hold num_clusters() doubles.
  void score_all(const data::Value* row, double* out) const;
  // Eq. (1) against a single cluster (the streaming rival-penalty path).
  double score_one(int l, const data::Value* row) const;

  // View-position overloads of the batched/single scorers: identical
  // arithmetic in identical (ascending-feature) order, reading cells
  // straight out of the columnar bank instead of a gathered row.
  void score_all(const data::DatasetView& ds, std::size_t i,
                 double* out) const;
  double score_one(int l, const data::DatasetView& ds, std::size_t i) const;

  // Weighted-quotient bank of a live Eq. (14) sweep (the competitive
  // stage's): counts_'s layout, cell (r, v) of cluster l holding
  //   non_null(l, r) > 0 ? w_rl * (count / non_null) : 0.0,
  // with w_rl = weights[l][r]. A row's Eq. (14) score is then the plain
  // sum of its present cells in ascending r (simd::score_row_f64 with
  // denominator 1), bit-identical to ClusterProfile::weighted_similarity.
  // The fill sizes `bank` and computes every cell. The refresh recomputes
  // cluster l's column over the features `cells` (a row_cells() result;
  // nullptr = every feature) marks present, every value of each: after
  // that row joins or leaves l, the only cells whose count or non-null
  // total changed.
  void fill_weighted_quotients(const std::vector<std::vector<double>>& weights,
                               AlignedVec<double>& bank) const;
  void refresh_weighted_quotients(int l, const std::vector<double>& weights,
                                  const std::size_t* cells,
                                  AlignedVec<double>& bank) const;
  // cells[r] = bank offset of view row i's (r, x_ir) cell block, or
  // simd::kNoCell when the value is missing or out of domain.
  void row_cells(const data::DatasetView& ds, std::size_t i,
                 std::size_t* cells) const;

  // Argmax of score_all with ties resolved to the lowest cluster id.
  // `scratch` is resized to k; pass a per-thread buffer in parallel sweeps.
  int best_cluster(const data::Value* row, std::vector<double>& scratch) const;
  int best_cluster(const data::DatasetView& ds, std::size_t i,
                   std::vector<double>& scratch) const;

  // Frozen batched argmax over a row range: out[i - lo] =
  // best_cluster(ds, i) for i in [lo, hi), labels byte-identical to the
  // per-row call. Freezes lazily (same single-writer contract as
  // freeze()); sweeps cache-blocked k x d tiles so a block of clusters
  // stays resident across features when k is large — the production
  // batch path (Model::predict_rows, refine_to_fixpoint, classify).
  void best_clusters(const data::DatasetView& ds, std::size_t lo,
                     std::size_t hi, int* out) const;
  // The same over n contiguous pre-encoded rows (row i at
  // rows + i * num_features()).
  void best_clusters(const data::Value* rows, std::size_t n, int* out) const;

  // Precomputes every count/non_null quotient so subsequent score sweeps
  // are division-free. Call when the profiles are frozen for a batch pass;
  // any mutation invalidates the cache automatically.
  //
  // Thread-safety contract, precisely: the cache is rebuilt lazily in
  // place (const method, mutable members), so read-only consumers can
  // freeze without copying the bank — but freeze() WRITES that cache, so
  // the first freeze() after a mutation must complete on one thread, with
  // a happens-before edge (thread creation, task-queue handoff) to every
  // other user, before any concurrent access; parallel sweeps therefore
  // freeze once before fanning out. After that, any number of threads may
  // score concurrently — including re-entering freeze(), which returns
  // immediately once frozen_ is set. What is NOT safe is a first freeze()
  // racing reads or another freeze(): "const" here is logically-const,
  // not internally synchronised. test_profile_set.ConcurrentFrozenReads
  // pins this contract under TSan.
  void freeze() const;
  bool frozen() const { return frozen_; }

  // Opt-in compact frozen bank: narrows the frozen quotients to float32
  // and drops the float64 cache, halving the sweep's working set. Scores
  // still accumulate in double (each f32 widened exactly), but the
  // narrowing itself rounds, so scores — and potentially labels — may
  // differ from the f64 bank. Consumers must prove label-identity on
  // their own data before adopting it (api::Model::try_compact_scorer);
  // thaw_compact() deterministically rebuilds the f64 cache from the
  // counts. Same single-writer contract as freeze(); any mutation thaws
  // both banks.
  void freeze_compact() const;
  void thaw_compact() const;
  bool compact_frozen() const { return frozen_ && !probs_f32_.empty(); }

  // Most frequent value of cluster l per feature (ties -> smallest code;
  // data::kMissing for an all-NULL column), as ClusterProfile::mode().
  std::vector<data::Value> mode(int l) const;

  // Materialises cluster l as a ClusterProfile (counts truncated to int) —
  // for consumers that serialise or keep the nested representation.
  ClusterProfile profile(int l) const;

  // Pooled per-feature value distribution across every cluster:
  // out[v] = sum_l count(l, r, v) / sum_l non_null(l, r) for v in
  // [0, cardinality(r)). Returns the pooled non-null mass (out is zeroed
  // when it is 0 — an all-NULL or empty bank carries no distribution).
  // Accumulated in ascending cluster order; a k = 1 bank over window rows
  // is exactly a per-feature window histogram, which is how the serving
  // drift detectors compare traffic against a published model's profiles.
  double marginal_distribution(std::size_t r, std::vector<double>& out) const;

 private:
  bool in_domain(std::size_t r, data::Value v) const {
    return v >= 0 && v < cardinalities_[r];
  }
  // Flat (feature, value) cell index in [0, total_cells_).
  std::size_t cell(std::size_t r, data::Value v) const {
    return offsets_[r] + static_cast<std::size_t>(v);
  }
  void thaw() {
    frozen_ = false;
    probs_.clear();
    probs_f32_.clear();
  }
  // One cache-blocked tile of the batched argmax: cells[t * d + r] is the
  // bank offset of row t's (r, v) cell block (kNoCell when missing/out of
  // domain), scores is m * k scratch, out receives m labels.
  void best_clusters_tile(const std::size_t* cells, std::size_t m,
                          double* scores, int* out) const;

  int k_ = 0;
  // Slots per (feature, value) cell, >= k_; slots in [k_, stride_) are
  // always all-zero (the append_cluster reuse invariant). Rounded up to a
  // whole cache line of doubles (kBankAlignment / sizeof(double) = 8) so
  // every cell block of the 64-byte-aligned banks starts line-aligned for
  // the SIMD sweeps.
  std::size_t stride_ = 0;
  std::vector<int> cardinalities_;
  std::vector<std::size_t> offsets_;  // offsets_[r] = sum of cardinalities < r
  std::size_t total_cells_ = 0;       // sum of cardinalities
  AlignedVec<double> counts_;         // [cell * stride + l]
  AlignedVec<double> non_null_;       // [r * stride + l]
  AlignedVec<double> size_;           // [l], length stride_
  // Lazily built frozen-quotient caches (counts_ layout): probs_ is the
  // bit-exact float64 bank; probs_f32_ is the opt-in compact bank, present
  // only between freeze_compact() and thaw_compact(), during which probs_
  // is dropped. Mutable for the logically-const lazy freeze — see
  // freeze() for the single-writer contract.
  mutable AlignedVec<double> probs_;
  mutable AlignedVec<float> probs_f32_;
  mutable bool frozen_ = false;
};

}  // namespace mcdc::core
