#include "metrics/internal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.h"
#include "core/simd.h"

namespace mcdc::metrics {

namespace {

int label_count(const std::vector<int>& labels) {
  int k = 0;
  for (int l : labels) {
    if (l < 0) throw std::invalid_argument("internal: negative label");
    k = std::max(k, l + 1);
  }
  return k;
}

// Mode of every (cluster, feature), looked up once: modes[l * d + r].
std::vector<data::Value> mode_table(const PartitionProfile& profile,
                                    std::size_t d) {
  std::vector<data::Value> modes(
      static_cast<std::size_t>(profile.num_clusters()) * d);
  for (int l = 0; l < profile.num_clusters(); ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      modes[static_cast<std::size_t>(l) * d + r] = profile.mode(l, r);
    }
  }
  return modes;
}

// Normalised Hamming distance between the modes of clusters l and t;
// features where either cluster has no observed value are skipped.
double mode_distance(const std::vector<data::Value>& modes, std::size_t d,
                     int l, int t) {
  const data::Value* ml = modes.data() + static_cast<std::size_t>(l) * d;
  const data::Value* mt = modes.data() + static_cast<std::size_t>(t) * d;
  int mismatches = 0;
  int compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    if (ml[r] == data::kMissing || mt[r] == data::kMissing) continue;
    ++compared;
    if (ml[r] != mt[r]) ++mismatches;
  }
  if (compared == 0) return 0.0;
  return static_cast<double>(mismatches) / static_cast<double>(compared);
}

}  // namespace

PartitionProfile::PartitionProfile(const data::DatasetView& ds,
                                   const std::vector<int>& labels) {
  if (labels.size() != ds.num_objects()) {
    throw std::invalid_argument("internal: labels/objects size mismatch");
  }
  k_ = label_count(labels);
  const auto ku = static_cast<std::size_t>(k_);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  sizes_.assign(ku, 0);
  offsets_.assign(d + 1, 0);
  for (std::size_t r = 0; r < d; ++r) {
    offsets_[r + 1] = offsets_[r] + static_cast<std::size_t>(ds.cardinality(r));
  }
  counts_.assign(offsets_[d] * ku, 0);
  non_null_.assign(d * ku, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++sizes_[static_cast<std::size_t>(labels[i])];
  }
  // Feature-major fill, fanned out per feature: each column is swept
  // stride-1 and writes only its own cell block and non-null row of the
  // bank. The counts are integers, so the bank is the same at every pool
  // width.
  parallel_chunks(d, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      int* cell_block = counts_.data() + offsets_[r] * ku;
      int* nn = non_null_.data() + r * ku;
      for (std::size_t i = 0; i < n; ++i) {
        const data::Value v = ds.at(i, r);
        if (v == data::kMissing) continue;
        const auto l = static_cast<std::size_t>(labels[i]);
        ++cell_block[static_cast<std::size_t>(v) * ku + l];
        ++nn[l];
      }
    }
  });
}

data::Value PartitionProfile::mode(int l, std::size_t r) const {
  data::Value best = data::kMissing;
  int best_count = 0;
  const std::size_t m_r = offsets_[r + 1] - offsets_[r];
  for (std::size_t v = 0; v < m_r; ++v) {
    const int c = count(l, r, static_cast<data::Value>(v));
    if (c > best_count) {
      best_count = c;
      best = static_cast<data::Value>(v);
    }
  }
  return best;
}

double PartitionProfile::mean_distance(const data::DatasetView& ds, std::size_t i,
                                       int l, bool exclude_self) const {
  const std::size_t d = ds.num_features();
  const bool self_member = exclude_self;
  double sum = 0.0;
  std::size_t compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = ds.at(i, r);
    if (v == data::kMissing) continue;
    int denom = non_null(l, r);
    int same = count(l, r, v);
    if (self_member) {
      --denom;
      --same;
    }
    if (denom <= 0) continue;
    ++compared;
    sum += 1.0 - static_cast<double>(same) / static_cast<double>(denom);
  }
  if (compared == 0) return 0.0;
  return sum / static_cast<double>(compared);
}

namespace {

// The index bodies below read one shared PartitionProfile (and mode table),
// so internal_scores builds them once; each public entry point builds its
// own.

double compactness_of(const data::DatasetView& ds,
                      const std::vector<int>& labels,
                      const PartitionProfile& profile) {
  if (ds.num_objects() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    // Similarity = 1 - mean mismatch, including the object itself in its
    // cluster histogram (the Eq. (1)-(2) convention).
    sum += 1.0 - profile.mean_distance(ds, i, labels[i], false);
  }
  return sum / static_cast<double>(ds.num_objects());
}

double separation_of(const PartitionProfile& profile,
                     const std::vector<data::Value>& modes, std::size_t d) {
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  double sum = 0.0;
  int pairs = 0;
  for (int l = 0; l < k; ++l) {
    for (int t = l + 1; t < k; ++t) {
      sum += mode_distance(modes, d, l, t);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

// b(i) = min over l != own of mean_distance(i, l), with the per-term
// divisions hoisted into a per-partition mismatch bank (see internal.h for
// the layout and the bit-identity argument).
double silhouette_of(const data::DatasetView& ds,
                     const std::vector<int>& labels,
                     const PartitionProfile& profile) {
  const std::size_t n = ds.num_objects();
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t d = ds.num_features();

  std::vector<int> nonempty;
  for (int l = 0; l < k; ++l) {
    if (profile.cluster_size(l) > 0) nonempty.push_back(l);
  }
  if (nonempty.size() < 2) return 0.0;  // no row has a b(i)

  // term[cell(r, v) + l] = 1 - count / non_null, the exact term
  // mean_distance adds for feature r, or 0.0 where it skips (non_null 0).
  // unobserved[r] lists the non-empty clusters that skip feature r.
  std::vector<double> term(profile.bank_size(), 0.0);
  std::vector<std::vector<int>> unobserved(d);
  for (std::size_t r = 0; r < d; ++r) {
    for (const int l : nonempty) {
      const int denom = profile.non_null(l, r);
      if (denom <= 0) {
        unobserved[r].push_back(l);
        continue;
      }
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        term[profile.cell(r, v) + static_cast<std::size_t>(l)] =
            1.0 - static_cast<double>(profile.count(l, r, v)) /
                      static_cast<double>(denom);
      }
    }
  }

  // Rows fan out over the pool and write only their own slots; rows that
  // contribute nothing keep +0.0, which leaves the ascending-i sum below
  // bit-unchanged.
  std::vector<double> contribution(n, 0.0);
  const core::simd::Kernels& kernels = core::simd::kernels();
  parallel_chunks(n, 64, [&](std::size_t lo, std::size_t hi) {
    std::vector<data::Value> row(d);
    std::vector<std::size_t> cells(d);
    std::vector<double> dist(ku);
    std::vector<int> compared(ku);
    for (std::size_t i = lo; i < hi; ++i) {
      const int own = labels[i];
      if (profile.cluster_size(own) <= 1) continue;  // contributes 0
      ds.gather_row(i, row.data());
      int present = 0;
      for (std::size_t r = 0; r < d; ++r) {
        cells[r] = core::simd::kNoCell;
        if (row[r] == data::kMissing) continue;
        ++present;
        cells[r] = profile.cell(r, row[r]);
      }
      // Denominator 1.0 leaves every sum exactly as accumulated.
      kernels.score_row_f64(dist.data(), term.data(), cells.data(), d, 1.0,
                            ku);
      std::fill(compared.begin(), compared.end(), present);
      for (std::size_t r = 0; r < d; ++r) {
        if (cells[r] == core::simd::kNoCell) continue;
        for (const int l : unobserved[r]) {
          --compared[static_cast<std::size_t>(l)];
        }
      }
      double b = std::numeric_limits<double>::infinity();
      for (const int l : nonempty) {
        if (l == own) continue;
        const auto lu = static_cast<std::size_t>(l);
        const int c = compared[lu];
        b = std::min(b, c == 0 ? 0.0 : dist[lu] / static_cast<double>(c));
      }
      const double a = profile.mean_distance(ds, i, own, true);
      const double denom = std::max(a, b);
      if (denom > 0.0) contribution[i] = (b - a) / denom;
    }
  });
  double sum = 0.0;
  for (const double c : contribution) sum += c;
  return sum / static_cast<double>(n);
}

double category_utility_of(const data::DatasetView& ds,
                           const PartitionProfile& profile) {
  const std::size_t n = ds.num_objects();
  const int k = profile.num_clusters();
  if (k == 0) return 0.0;
  const auto global = ds.value_counts();

  // Global sum of squared value probabilities, ignoring missing cells.
  double base = 0.0;
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    std::int64_t observed = 0;
    for (int c : global[r]) observed += c;
    if (observed == 0) continue;
    for (int c : global[r]) {
      const double p = static_cast<double>(c) / static_cast<double>(observed);
      base += p * p;
    }
  }

  double cu = 0.0;
  for (int l = 0; l < k; ++l) {
    const double p_cluster =
        static_cast<double>(profile.cluster_size(l)) / static_cast<double>(n);
    if (p_cluster == 0.0) continue;
    double inner = 0.0;
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      const int denom = profile.non_null(l, r);
      if (denom == 0) continue;
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        const double p =
            static_cast<double>(profile.count(l, r, v)) / denom;
        inner += p * p;
      }
    }
    cu += p_cluster * (inner - base);
  }
  return cu / static_cast<double>(k);
}

double davies_bouldin_of(const data::DatasetView& ds,
                         const std::vector<int>& labels,
                         const PartitionProfile& profile,
                         const std::vector<data::Value>& modes) {
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  const std::size_t d = ds.num_features();
  // Every cluster's scatter (mean member-to-own-mode Hamming distance) in
  // one pass over the rows; each cluster's sum still runs in ascending i.
  std::vector<double> scatter(static_cast<std::size_t>(k), 0.0);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const auto l = static_cast<std::size_t>(labels[i]);
    const data::Value* mode = modes.data() + l * d;
    int mismatches = 0;
    int compared = 0;
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = ds.at(i, r);
      if (v == data::kMissing || mode[r] == data::kMissing) continue;
      ++compared;
      if (v != mode[r]) ++mismatches;
    }
    if (compared > 0) {
      scatter[l] +=
          static_cast<double>(mismatches) / static_cast<double>(compared);
    }
  }
  for (int l = 0; l < k; ++l) {
    const std::size_t members = profile.cluster_size(l);
    double& s = scatter[static_cast<std::size_t>(l)];
    s = members == 0 ? 0.0 : s / static_cast<double>(members);
  }
  double sum = 0.0;
  for (int l = 0; l < k; ++l) {
    double worst = 0.0;
    for (int t = 0; t < k; ++t) {
      if (t == l) continue;
      const double dist = mode_distance(modes, d, l, t);
      const double numer = scatter[static_cast<std::size_t>(l)] +
                           scatter[static_cast<std::size_t>(t)];
      const double ratio = dist > 0.0
                               ? numer / dist
                               : (numer > 0.0
                                      ? std::numeric_limits<double>::infinity()
                                      : 0.0);
      worst = std::max(worst, ratio);
    }
    sum += worst;
  }
  return sum / static_cast<double>(k);
}

}  // namespace

double compactness(const data::DatasetView& ds, const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  return compactness_of(ds, labels, PartitionProfile(ds, labels));
}

double mode_separation(const data::DatasetView& ds,
                       const std::vector<int>& labels) {
  const PartitionProfile profile(ds, labels);
  return separation_of(profile, mode_table(profile, ds.num_features()),
                       ds.num_features());
}

double categorical_silhouette(const data::DatasetView& ds,
                              const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  return silhouette_of(ds, labels, PartitionProfile(ds, labels));
}

double category_utility(const data::DatasetView& ds,
                        const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  return category_utility_of(ds, PartitionProfile(ds, labels));
}

double davies_bouldin_modes(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  const PartitionProfile profile(ds, labels);
  return davies_bouldin_of(ds, labels, profile,
                           mode_table(profile, ds.num_features()));
}

InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels) {
  const PartitionProfile profile(ds, labels);
  const std::size_t d = ds.num_features();
  const std::vector<data::Value> modes = mode_table(profile, d);
  InternalScores out;
  out.compactness = compactness_of(ds, labels, profile);
  out.separation = separation_of(profile, modes, d);
  out.silhouette = silhouette_of(ds, labels, profile);
  out.category_utility = category_utility_of(ds, profile);
  out.davies_bouldin = davies_bouldin_of(ds, labels, profile, modes);
  return out;
}

}  // namespace mcdc::metrics
