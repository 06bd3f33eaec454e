#include "core/profile_set.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::core {

namespace {

// Slots per cache line; stride_ is kept a multiple of this so every cell
// block of a 64-byte-aligned bank starts line-aligned.
constexpr std::size_t kLineSlots = kBankAlignment / sizeof(double);

constexpr std::size_t round_up_stride(std::size_t slots) {
  return (slots + kLineSlots - 1) / kLineSlots * kLineSlots;
}

// Rows per gathered tile of the batch argmax: cell offsets for 32 rows are
// resolved in one pass (amortising any view indirection) before the
// register-blocked score_row microkernel sweeps them.
constexpr std::size_t kRowTile = 32;

template <class T>
void assert_bank_aligned(const AlignedVec<T>& bank) {
  // mcdc-lint: allow(D4) debug alignment assert — the address feeds a
  // modulus check, never an ordering or a key.
  assert(bank.empty() ||
         reinterpret_cast<std::uintptr_t>(bank.data()) % kBankAlignment == 0);
  (void)bank;
}

}  // namespace

ProfileSet::ProfileSet(const std::vector<int>& cardinalities, int k)
    : k_(k),
      stride_(round_up_stride(static_cast<std::size_t>(k))),
      cardinalities_(cardinalities) {
  if (k < 0) throw std::invalid_argument("ProfileSet: negative k");
  offsets_.resize(cardinalities_.size() + 1);
  offsets_[0] = 0;
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    if (cardinalities_[r] < 0) {
      throw std::invalid_argument("ProfileSet: negative cardinality");
    }
    offsets_[r + 1] = offsets_[r] + static_cast<std::size_t>(cardinalities_[r]);
  }
  total_cells_ = offsets_.back();
  counts_.assign(total_cells_ * stride_, 0.0);
  non_null_.assign(cardinalities_.size() * stride_, 0.0);
  size_.assign(stride_, 0.0);
  assert_bank_aligned(counts_);
  assert_bank_aligned(non_null_);
}

ProfileSet ProfileSet::from_assignment(const data::DatasetView& ds,
                                       const std::vector<int>& assignment,
                                       int k) {
  const std::size_t n = ds.num_objects();
  if (assignment.size() != n) {
    throw std::invalid_argument(
        "ProfileSet::from_assignment: assignment size mismatch");
  }
  ProfileSet set(ds.cardinalities(), k);
  for (std::size_t i = 0; i < n; ++i) {
    const int l = assignment[i];
    if (l < 0) continue;
    if (l >= k) {
      throw std::invalid_argument(
          "ProfileSet::from_assignment: label out of range");
    }
    set.size_[static_cast<std::size_t>(l)] += 1.0;
  }
  // Feature-major accumulation: each dataset column is swept stride-1 and
  // touches only its own cell block of the bank, instead of every row
  // scattering writes across the whole bank. Identity views read the
  // column pointer directly; indirected views gather per position. The
  // per-feature non-null totals are exactly the column sums of that
  // feature's cell block (counts are integral), so they are derived in one
  // cheap post-pass instead of a second scattered add per cell.
  const std::size_t d = set.cardinalities_.size();
  const int* a = assignment.data();
  for (std::size_t r = 0; r < d; ++r) {
    double* cell_block = set.counts_.data() + set.offsets_[r] * set.stride_;
    const int m_r = set.cardinalities_[r];
    if (ds.is_identity()) {
      const data::Value* column = ds.col(r);
      for (std::size_t i = 0; i < n; ++i) {
        const int l = a[i];
        const data::Value v = column[i];
        if (l < 0 || v < 0 || v >= m_r) continue;
        cell_block[static_cast<std::size_t>(v) * set.stride_ +
                   static_cast<std::size_t>(l)] += 1.0;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const int l = a[i];
        if (l < 0) continue;
        const data::Value v = ds.at(i, r);
        if (v < 0 || v >= m_r) continue;
        cell_block[static_cast<std::size_t>(v) * set.stride_ +
                   static_cast<std::size_t>(l)] += 1.0;
      }
    }
    double* nn = set.non_null_.data() + r * set.stride_;
    for (std::size_t v = 0; v < static_cast<std::size_t>(m_r); ++v) {
      const double* slot = cell_block + v * set.stride_;
      for (std::size_t l = 0; l < static_cast<std::size_t>(k); ++l) {
        nn[l] += slot[l];
      }
    }
  }
  return set;
}

ProfileSet ProfileSet::from_profiles(
    const std::vector<ClusterProfile>& profiles) {
  if (profiles.empty()) return {};
  std::vector<int> cardinalities;
  cardinalities.reserve(profiles.front().counts().size());
  for (const auto& feature_counts : profiles.front().counts()) {
    cardinalities.push_back(static_cast<int>(feature_counts.size()));
  }
  ProfileSet set(cardinalities, static_cast<int>(profiles.size()));
  for (std::size_t l = 0; l < profiles.size(); ++l) {
    const auto& counts = profiles[l].counts();
    if (counts.size() != cardinalities.size()) {
      throw std::invalid_argument("ProfileSet::from_profiles: schema mismatch");
    }
    for (std::size_t r = 0; r < counts.size(); ++r) {
      if (counts[r].size() != static_cast<std::size_t>(cardinalities[r])) {
        throw std::invalid_argument(
            "ProfileSet::from_profiles: schema mismatch");
      }
      for (std::size_t v = 0; v < counts[r].size(); ++v) {
        set.counts_[(set.offsets_[r] + v) * set.stride_ + l] =
            static_cast<double>(counts[r][v]);
      }
      set.non_null_[r * set.stride_ + l] =
          static_cast<double>(profiles[l].non_null_count(r));
    }
    set.size_[l] = static_cast<double>(profiles[l].size());
  }
  return set;
}

double ProfileSet::value_similarity(int l, std::size_t r, data::Value v) const {
  if (!in_domain(r, v)) return 0.0;
  const double denom = non_null(l, r);
  if (denom <= 0.0) return 0.0;
  return count(l, r, v) / denom;
}

void ProfileSet::add(int l, const data::Value* row) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] += 1.0;
    non_null_[r * stride_ + lu] += 1.0;
  }
  size_[lu] += 1.0;
}

void ProfileSet::remove(int l, const data::Value* row) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] -= 1.0;
    non_null_[r * stride_ + lu] -= 1.0;
  }
  size_[lu] -= 1.0;
}

void ProfileSet::move(int from, int to, const data::Value* row) {
  if (from == to) return;
  thaw();
  const auto fu = static_cast<std::size_t>(from);
  const auto tu = static_cast<std::size_t>(to);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    const std::size_t base = cell(r, v) * stride_;
    counts_[base + fu] -= 1.0;
    counts_[base + tu] += 1.0;
    non_null_[r * stride_ + fu] -= 1.0;
    non_null_[r * stride_ + tu] += 1.0;
  }
  size_[fu] -= 1.0;
  size_[tu] += 1.0;
}

void ProfileSet::add(int l, const data::DatasetView& ds, std::size_t i) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = ds.at(i, r);
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] += 1.0;
    non_null_[r * stride_ + lu] += 1.0;
  }
  size_[lu] += 1.0;
}

void ProfileSet::remove(int l, const data::DatasetView& ds, std::size_t i) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = ds.at(i, r);
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] -= 1.0;
    non_null_[r * stride_ + lu] -= 1.0;
  }
  size_[lu] -= 1.0;
}

void ProfileSet::move(int from, int to, const data::DatasetView& ds,
                      std::size_t i) {
  if (from == to) return;
  thaw();
  const auto fu = static_cast<std::size_t>(from);
  const auto tu = static_cast<std::size_t>(to);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = ds.at(i, r);
    if (!in_domain(r, v)) continue;
    const std::size_t base = cell(r, v) * stride_;
    counts_[base + fu] -= 1.0;
    counts_[base + tu] += 1.0;
    non_null_[r * stride_ + fu] -= 1.0;
    non_null_[r * stride_ + tu] += 1.0;
  }
  size_[fu] -= 1.0;
  size_[tu] += 1.0;
}

void ProfileSet::scale(double factor) {
  thaw();
  // Spare slots are zero; scaling keeps them zero, so whole-buffer sweeps
  // are safe and vectorise.
  for (double& c : counts_) c *= factor;
  for (double& n : non_null_) n *= factor;
  for (double& s : size_) s *= factor;
}

int ProfileSet::append_cluster() {
  thaw();
  if (static_cast<std::size_t>(k_) < stride_) {
    // Spare slot available — already all-zero by invariant.
    return k_++;
  }
  // Grow the stride geometrically and re-lay the bank once. Doubling a
  // line-multiple keeps the stride a line-multiple (first growth from an
  // empty set lands on one full line).
  const std::size_t old_stride = stride_;
  const std::size_t new_stride = std::max(kLineSlots, old_stride * 2);
  const auto relay = [&](AlignedVec<double>& bank, std::size_t slots) {
    AlignedVec<double> out(slots * new_stride, 0.0);
    for (std::size_t s = 0; s < slots; ++s) {
      std::copy_n(bank.data() + s * old_stride, old_stride,
                  out.data() + s * new_stride);
    }
    bank = std::move(out);
  };
  relay(counts_, total_cells_);
  relay(non_null_, cardinalities_.size());
  size_.resize(new_stride, 0.0);
  stride_ = new_stride;
  assert_bank_aligned(counts_);
  assert_bank_aligned(non_null_);
  return k_++;
}

void ProfileSet::clear_cluster(int l) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t cell = 0; cell < total_cells_; ++cell) {
    counts_[cell * stride_ + lu] = 0.0;
  }
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    non_null_[r * stride_ + lu] = 0.0;
  }
  size_[lu] = 0.0;
}

std::vector<int> ProfileSet::remove_clusters(const std::vector<char>& dead) {
  if (dead.size() != static_cast<std::size_t>(k_)) {
    throw std::invalid_argument("ProfileSet::remove_clusters: mask size");
  }
  thaw();
  const auto old_k = static_cast<std::size_t>(k_);
  std::vector<int> remap(old_k, -1);
  std::size_t live = 0;
  for (std::size_t l = 0; l < old_k; ++l) {
    if (!dead[l]) remap[l] = static_cast<int>(live++);
  }
  if (live == old_k) return remap;
  // In-place left compaction within the existing stride: remap[l] <= l, so
  // ascending writes never clobber a yet-unread slot. Freed slots go back
  // to zero (the spare-slot invariant append_cluster relies on).
  const auto compact = [&](AlignedVec<double>& bank, std::size_t slots) {
    for (std::size_t s = 0; s < slots; ++s) {
      double* p = bank.data() + s * stride_;
      for (std::size_t l = 0; l < old_k; ++l) {
        if (remap[l] >= 0) p[static_cast<std::size_t>(remap[l])] = p[l];
      }
      std::fill(p + live, p + old_k, 0.0);
    }
  };
  compact(counts_, total_cells_);
  compact(non_null_, cardinalities_.size());
  for (std::size_t l = 0; l < old_k; ++l) {
    if (remap[l] >= 0) size_[static_cast<std::size_t>(remap[l])] = size_[l];
  }
  std::fill(size_.begin() + static_cast<std::ptrdiff_t>(live),
            size_.begin() + static_cast<std::ptrdiff_t>(old_k), 0.0);
  k_ = static_cast<int>(live);
  return remap;
}

void ProfileSet::score_all(const data::Value* row, double* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  std::fill(out, out + k, 0.0);
  if (frozen_ && !probs_f32_.empty()) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = row[r];
      if (!in_domain(r, v)) continue;
      kr.acc_f32(out, probs_f32_.data() + cell(r, v) * stride_, k);
    }
  } else if (frozen_) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = row[r];
      if (!in_domain(r, v)) continue;
      kr.acc_f64(out, probs_.data() + cell(r, v) * stride_, k);
    }
  } else {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = row[r];
      if (!in_domain(r, v)) continue;
      kr.quot_f64(out, counts_.data() + cell(r, v) * stride_,
                  non_null_.data() + r * stride_, k);
    }
  }
  kr.div_f64(out, static_cast<double>(d), k);
}

double ProfileSet::score_one(int l, const data::Value* row) const {
  const std::size_t d = cardinalities_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += value_similarity(l, r, row[r]);
  }
  return sum / static_cast<double>(d);
}

void ProfileSet::score_all(const data::DatasetView& ds, std::size_t i,
                           double* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  std::fill(out, out + k, 0.0);
  if (frozen_ && !probs_f32_.empty()) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = ds.at(i, r);
      if (!in_domain(r, v)) continue;
      kr.acc_f32(out, probs_f32_.data() + cell(r, v) * stride_, k);
    }
  } else if (frozen_) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = ds.at(i, r);
      if (!in_domain(r, v)) continue;
      kr.acc_f64(out, probs_.data() + cell(r, v) * stride_, k);
    }
  } else {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = ds.at(i, r);
      if (!in_domain(r, v)) continue;
      kr.quot_f64(out, counts_.data() + cell(r, v) * stride_,
                  non_null_.data() + r * stride_, k);
    }
  }
  kr.div_f64(out, static_cast<double>(d), k);
}

double ProfileSet::score_one(int l, const data::DatasetView& ds,
                             std::size_t i) const {
  const std::size_t d = cardinalities_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += value_similarity(l, r, ds.at(i, r));
  }
  return sum / static_cast<double>(d);
}

void ProfileSet::fill_weighted_quotients(
    const std::vector<std::vector<double>>& weights,
    AlignedVec<double>& bank) const {
  bank.assign(counts_.size(), 0.0);
  for (int l = 0; l < k_; ++l) {
    refresh_weighted_quotients(l, weights[static_cast<std::size_t>(l)],
                               nullptr, bank);
  }
}

void ProfileSet::refresh_weighted_quotients(int l,
                                            const std::vector<double>& weights,
                                            const std::size_t* cells,
                                            AlignedVec<double>& bank) const {
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    if (cells != nullptr && cells[r] == simd::kNoCell) continue;
    const double nn = non_null_[r * stride_ + lu];
    for (std::size_t c = offsets_[r]; c < offsets_[r + 1]; ++c) {
      const std::size_t at = c * stride_ + lu;
      bank[at] = nn > 0.0 ? weights[r] * (counts_[at] / nn) : 0.0;
    }
  }
}

void ProfileSet::row_cells(const data::DatasetView& ds, std::size_t i,
                           std::size_t* cells) const {
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = ds.at(i, r);
    cells[r] = in_domain(r, v) ? cell(r, v) * stride_ : simd::kNoCell;
  }
}

int ProfileSet::best_cluster(const data::Value* row,
                             std::vector<double>& scratch) const {
  scratch.resize(static_cast<std::size_t>(k_));
  score_all(row, scratch.data());
  return simd::kernels().argmax(scratch.data(),
                                static_cast<std::size_t>(k_));
}

int ProfileSet::best_cluster(const data::DatasetView& ds, std::size_t i,
                             std::vector<double>& scratch) const {
  scratch.resize(static_cast<std::size_t>(k_));
  score_all(ds, i, scratch.data());
  return simd::kernels().argmax(scratch.data(),
                                static_cast<std::size_t>(k_));
}

void ProfileSet::best_clusters_tile(const std::size_t* cells, std::size_t m,
                                    double* scores, int* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  // The score_row microkernel register-blocks the k x d sweep: a
  // 32-cluster block of accumulators stays in registers across the whole
  // feature loop, with one fused divide-and-store at the end. Per lane
  // the op sequence (zero, += per feature in r order, one division) is
  // exactly the per-row acc/div path, so labels stay byte-identical.
  if (!probs_f32_.empty()) {
    const float* bank = probs_f32_.data();
    for (std::size_t t = 0; t < m; ++t) {
      kr.score_row_f32(scores, bank, cells + t * d, d,
                       static_cast<double>(d), k);
      out[t] = kr.argmax(scores, k);
    }
  } else {
    const double* bank = probs_.data();
    for (std::size_t t = 0; t < m; ++t) {
      kr.score_row_f64(scores, bank, cells + t * d, d,
                       static_cast<double>(d), k);
      out[t] = kr.argmax(scores, k);
    }
  }
}

void ProfileSet::best_clusters(const data::DatasetView& ds, std::size_t lo,
                               std::size_t hi, int* out) const {
  if (hi <= lo) return;
  if (!frozen_) freeze();
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  std::vector<std::size_t> cells(kRowTile * d);
  std::vector<double> scores(k);
  for (std::size_t t0 = lo; t0 < hi; t0 += kRowTile) {
    const std::size_t m = std::min(kRowTile, hi - t0);
    for (std::size_t t = 0; t < m; ++t) {
      row_cells(ds, t0 + t, cells.data() + t * d);
    }
    best_clusters_tile(cells.data(), m, scores.data(), out + (t0 - lo));
  }
}

void ProfileSet::best_clusters(const data::Value* rows, std::size_t n,
                               int* out) const {
  if (n == 0) return;
  if (!frozen_) freeze();
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  std::vector<std::size_t> cells(kRowTile * d);
  std::vector<double> scores(k);
  for (std::size_t t0 = 0; t0 < n; t0 += kRowTile) {
    const std::size_t m = std::min(kRowTile, n - t0);
    for (std::size_t t = 0; t < m; ++t) {
      const data::Value* row = rows + (t0 + t) * d;
      for (std::size_t r = 0; r < d; ++r) {
        const data::Value v = row[r];
        cells[t * d + r] =
            in_domain(r, v) ? cell(r, v) * stride_ : simd::kNoCell;
      }
    }
    best_clusters_tile(cells.data(), m, scores.data(), out + t0);
  }
}

void ProfileSet::freeze() const {
  if (frozen_) return;
  const auto k = static_cast<std::size_t>(k_);
  probs_.assign(counts_.size(), 0.0);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const double* nn = non_null_.data() + r * stride_;
    for (std::size_t v = 0; v < static_cast<std::size_t>(cardinalities_[r]);
         ++v) {
      const std::size_t base = (offsets_[r] + v) * stride_;
      for (std::size_t l = 0; l < k; ++l) {
        probs_[base + l] = nn[l] > 0.0 ? counts_[base + l] / nn[l] : 0.0;
      }
    }
  }
  frozen_ = true;
  assert_bank_aligned(probs_);
}

void ProfileSet::freeze_compact() const {
  freeze();
  if (!probs_f32_.empty()) return;
  probs_f32_.resize(probs_.size());
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    probs_f32_[i] = static_cast<float>(probs_[i]);
  }
  // Drop the f64 cache — halving the working set is the whole point. It
  // is rebuilt deterministically from the counts by thaw_compact().
  probs_.clear();
  probs_.shrink_to_fit();
  assert_bank_aligned(probs_f32_);
}

void ProfileSet::thaw_compact() const {
  if (probs_f32_.empty()) return;
  probs_f32_.clear();
  probs_f32_.shrink_to_fit();
  if (frozen_) {
    frozen_ = false;
    freeze();
  }
}

std::vector<data::Value> ProfileSet::mode(int l) const {
  std::vector<data::Value> modes(cardinalities_.size(), data::kMissing);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    double best = 0.0;
    for (data::Value v = 0; v < cardinalities_[r]; ++v) {
      const double c = count(l, r, v);
      if (c > best) {
        best = c;
        modes[r] = v;
      }
    }
  }
  return modes;
}

ClusterProfile ProfileSet::profile(int l) const {
  std::vector<std::vector<int>> counts(cardinalities_.size());
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    counts[r].resize(static_cast<std::size_t>(cardinalities_[r]));
    for (data::Value v = 0; v < cardinalities_[r]; ++v) {
      counts[r][static_cast<std::size_t>(v)] =
          static_cast<int>(count(l, r, v));
    }
  }
  return ClusterProfile::from_counts(std::move(counts),
                                     static_cast<int>(size(l)));
}

double ProfileSet::marginal_distribution(std::size_t r,
                                         std::vector<double>& out) const {
  const auto card = static_cast<std::size_t>(cardinalities_[r]);
  out.assign(card, 0.0);
  double mass = 0.0;
  for (int l = 0; l < k_; ++l) mass += non_null(l, r);
  if (mass <= 0.0) return 0.0;
  for (data::Value v = 0; v < cardinalities_[r]; ++v) {
    double pooled = 0.0;
    for (int l = 0; l < k_; ++l) pooled += count(l, r, v);
    out[static_cast<std::size_t>(v)] = pooled / mass;
  }
  return mass;
}

}  // namespace mcdc::core
