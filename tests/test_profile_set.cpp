// Tests for the flat ProfileSet scoring kernel (profile_set.h): equivalence
// with the nested per-cluster ClusterProfile reference (tests/support) on
// randomised datasets with NULLs, the weighted-quotient bank (its sums
// against weighted_similarity and its column refresh against a full
// refill, both bitwise), the serialised-counts and truncated-snapshot
// constructors against the reference's int arithmetic, incremental
// maintenance, cluster append/remove restriding, out-of-domain clamping,
// and fixed-seed label goldens across every registered method (the
// byte-identity contract of the kernel rewire); plus the register-blocked
// batch argmax vs the per-row scan, the fused penalised top-2 kernel vs the
// transform-and-two-argmax sequence it replaced, and the freeze()
// single-writer contract under concurrent frozen readers (the tsan CI job
// runs this binary).
#include "core/profile_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/simd.h"
#include "data/noise.h"
#include "data/synthetic.h"
#include "support/nested_profile.h"

namespace mcdc {
namespace {

// Random categorical dataset with ~10% missing cells and random labels.
struct RandomCase {
  data::Dataset ds;
  std::vector<int> labels;
  int k = 0;
};

RandomCase random_case(std::uint64_t seed, std::size_t n = 160,
                       std::size_t d = 6, int k = 5) {
  Rng rng(seed);
  std::vector<int> cardinalities(d);
  for (auto& m : cardinalities) {
    m = static_cast<int>(rng.uniform_int(2, 6));
  }
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      cells[i * d + r] =
          rng.bernoulli(0.1)
              ? data::kMissing
              : static_cast<data::Value>(rng.below(
                    static_cast<std::uint64_t>(cardinalities[r])));
    }
  }
  RandomCase out{data::Dataset(n, d, std::move(cells), cardinalities), {}, k};
  out.labels.resize(n);
  for (auto& l : out.labels) {
    l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return out;
}

TEST(ProfileSet, ScoreAllMatchesPerClusterSimilarity) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RandomCase c = random_case(seed);
    const auto profiles = core::build_profiles(c.ds, c.labels, c.k);
    core::ProfileSet set =
        core::ProfileSet::from_assignment(c.ds, c.labels, c.k);

    std::vector<double> batched(static_cast<std::size_t>(c.k));
    for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
      set.score_all(c.ds, i, batched.data());
      for (int l = 0; l < c.k; ++l) {
        const double reference =
            profiles[static_cast<std::size_t>(l)].similarity(c.ds, i);
        EXPECT_DOUBLE_EQ(batched[static_cast<std::size_t>(l)], reference);
        EXPECT_NEAR(batched[static_cast<std::size_t>(l)], reference, 1e-12);
        EXPECT_DOUBLE_EQ(set.score_one(l, c.ds, i), reference);
      }
    }
    // Frozen quotients come from the same divisions: still identical.
    set.freeze();
    for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
      set.score_all(c.ds, i, batched.data());
      for (int l = 0; l < c.k; ++l) {
        EXPECT_DOUBLE_EQ(
            batched[static_cast<std::size_t>(l)],
            profiles[static_cast<std::size_t>(l)].similarity(c.ds, i));
      }
    }
  }
}

// random_case with feature 0 blanked on every row of cluster 0, so the
// bank also holds a (cluster, feature) whose non-null total is 0.
RandomCase null_feature_case(std::uint64_t seed) {
  const RandomCase c = random_case(seed);
  const std::size_t n = c.ds.num_objects();
  const std::size_t d = c.ds.num_features();
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      cells[i * d + r] =
          r == 0 && c.labels[i] == 0 ? data::kMissing : c.ds.at(i, r);
    }
  }
  return {data::Dataset(n, d, std::move(cells), c.ds.cardinalities()),
          c.labels, c.k};
}

// Random per-cluster weight vectors: weights[l][r] = w_rl.
std::vector<std::vector<double>> random_weights(std::uint64_t seed, int k,
                                                std::size_t d) {
  Rng rng(seed);
  std::vector<std::vector<double>> weights(static_cast<std::size_t>(k),
                                           std::vector<double>(d));
  for (auto& column : weights) {
    for (double& w : column) w = rng.uniform();
  }
  return weights;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ProfileSet, WeightedQuotientBankSumsToWeightedSimilarity) {
  const RandomCase c = null_feature_case(11);
  const auto profiles = core::build_profiles(c.ds, c.labels, c.k);
  const core::ProfileSet set =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  ASSERT_EQ(set.non_null(0, 0), 0.0);  // the all-NULL (cluster, feature)
  const std::size_t d = c.ds.num_features();
  const auto weights = random_weights(99, c.k, d);
  core::AlignedVec<double> bank;
  set.fill_weighted_quotients(weights, bank);

  const auto k = static_cast<std::size_t>(c.k);
  std::vector<std::size_t> cells(d);
  std::vector<double> swept(k);
  for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
    set.row_cells(c.ds, i, cells.data());
    core::simd::kernels().score_row_f64(swept.data(), bank.data(),
                                        cells.data(), d, 1.0, k);
    for (std::size_t l = 0; l < k; ++l) {
      double summed = 0.0;
      for (std::size_t r = 0; r < d; ++r) {
        if (cells[r] != core::simd::kNoCell) summed += bank[cells[r] + l];
      }
      const double reference =
          profiles[l].weighted_similarity(c.ds, i, weights[l]);
      EXPECT_TRUE(same_bits(summed, reference)) << "row " << i << " l " << l;
      EXPECT_TRUE(same_bits(swept[l], reference)) << "row " << i << " l " << l;
    }
  }
}

TEST(ProfileSet, WeightedQuotientRefreshMatchesRefill) {
  RandomCase c = null_feature_case(21);
  const std::size_t d = c.ds.num_features();
  Rng rng(7);
  // A few rows start unassigned so the walk also adds.
  for (int step = 0; step < 20; ++step) {
    c.labels[static_cast<std::size_t>(rng.below(c.ds.num_objects()))] = -1;
  }
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const auto weights = random_weights(5, c.k, d);
  core::AlignedVec<double> bank;
  set.fill_weighted_quotients(weights, bank);

  std::vector<std::size_t> cells(d);
  const auto refresh = [&](int l) {
    if (l >= 0) {
      set.refresh_weighted_quotients(l, weights[static_cast<std::size_t>(l)],
                                     cells.data(), bank);
    }
  };
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(c.ds.num_objects()));
    const int from = c.labels[i];
    // One in four steps unassigns; the rest join a random cluster.
    const int to = rng.below(4) == 0
                       ? -1
                       : static_cast<int>(
                             rng.below(static_cast<std::uint64_t>(c.k)));
    if (from == to) continue;
    set.row_cells(c.ds, i, cells.data());
    if (from < 0) {
      set.add(to, c.ds, i);
    } else if (to < 0) {
      set.remove(from, c.ds, i);
    } else {
      set.move(from, to, c.ds, i);
    }
    c.labels[i] = to;
    refresh(to);
    refresh(from);
  }
  core::AlignedVec<double> refilled;
  set.fill_weighted_quotients(weights, refilled);
  ASSERT_EQ(bank.size(), refilled.size());
  EXPECT_EQ(std::memcmp(bank.data(), refilled.data(),
                        bank.size() * sizeof(double)),
            0);
}

TEST(ProfileSet, IncrementalMaintenanceMatchesRebuild) {
  RandomCase c = random_case(21);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  // Shuffle a few objects between clusters with move/remove/add.
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(c.ds.num_objects()));
    const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.k)));
    set.move(c.labels[i], to, c.ds, i);
    c.labels[i] = to;
  }
  const core::ProfileSet rebuilt =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int l = 0; l < c.k; ++l) {
    EXPECT_DOUBLE_EQ(set.size(l), rebuilt.size(l));
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      EXPECT_DOUBLE_EQ(set.non_null(l, r), rebuilt.non_null(l, r));
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_DOUBLE_EQ(set.count(l, r, v), rebuilt.count(l, r, v));
      }
    }
  }
}

TEST(ProfileSet, AppendAndRemoveClustersRestrideTheBank) {
  const RandomCase c = random_case(31, 60, 4, 3);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const int fresh = set.append_cluster();
  EXPECT_EQ(fresh, 3);
  EXPECT_EQ(set.num_clusters(), 4);
  EXPECT_TRUE(set.empty(fresh));
  set.add(fresh, c.ds, 0);
  EXPECT_DOUBLE_EQ(set.size(fresh), 1.0);

  // Old clusters kept their histograms across the restride.
  const core::ProfileSet reference =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int l = 0; l < c.k; ++l) {
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_DOUBLE_EQ(set.count(l, r, v), reference.count(l, r, v));
      }
    }
  }

  // Dropping cluster 1 compacts the survivors in order.
  std::vector<char> dead(4, 0);
  dead[1] = 1;
  const std::vector<int> remap = set.remove_clusters(dead);
  EXPECT_EQ(set.num_clusters(), 3);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], -1);
  EXPECT_EQ(remap[2], 1);
  EXPECT_EQ(remap[3], 2);
  for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
    for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
      EXPECT_DOUBLE_EQ(set.count(0, r, v), reference.count(0, r, v));
      EXPECT_DOUBLE_EQ(set.count(1, r, v), reference.count(2, r, v));
    }
  }
}

TEST(ProfileSet, OutOfDomainCodesClampToMissing) {
  const RandomCase c = random_case(41, 50, 3, 2);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  EXPECT_DOUBLE_EQ(set.count(0, 0, 999), 0.0);
  EXPECT_DOUBLE_EQ(set.count(0, 0, data::kMissing), 0.0);
  EXPECT_DOUBLE_EQ(set.value_similarity(0, 0, 999), 0.0);
  EXPECT_DOUBLE_EQ(set.value_similarity(0, 0, -7), 0.0);

  // A row full of out-of-domain codes scores zero everywhere (all-missing).
  std::vector<data::Value> bogus(c.ds.num_features(), 999);
  std::vector<double> scores(static_cast<std::size_t>(c.k));
  set.score_all(bogus.data(), scores.data());
  for (double s : scores) EXPECT_DOUBLE_EQ(s, 0.0);
  // Mutators ignore out-of-domain cells instead of writing out of bounds:
  // only the member count moves, never a histogram cell.
  const double nn_before = set.non_null(0, 0);
  set.add(0, bogus.data());
  EXPECT_DOUBLE_EQ(set.non_null(0, 0), nn_before);
  set.remove(0, bogus.data());
  EXPECT_DOUBLE_EQ(set.non_null(0, 0), nn_before);
}

TEST(ClusterProfile, OutOfDomainCodesClampToMissing) {
  core::ClusterProfile profile(std::vector<int>{3, 2});
  data::Dataset ds(1, 2, {1, 0}, {3, 2});
  profile.add(ds, 0);
  EXPECT_EQ(profile.value_count(0, 1), 1);
  // Out-of-domain reads are missing, not out-of-bounds.
  EXPECT_EQ(profile.value_count(0, 17), 0);
  EXPECT_EQ(profile.value_count(0, data::kMissing), 0);
  EXPECT_DOUBLE_EQ(profile.value_similarity(0, 17), 0.0);
  EXPECT_DOUBLE_EQ(profile.value_similarity(1, -5), 0.0);
  // A raw similarity(row) caller with an unseen category gets the
  // missing-cell semantics instead of undefined behaviour: feature 0 is
  // treated as missing (0), feature 1 matches fully (1), mean = 0.5.
  const std::vector<data::Value> unseen{17, 0};
  EXPECT_DOUBLE_EQ(profile.similarity(unseen.data()), 0.5);
}

TEST(ProfileSet, ModeMatchesClusterProfileMode) {
  const RandomCase c = random_case(51);
  const auto profiles = core::build_profiles(c.ds, c.labels, c.k);
  const core::ProfileSet set =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int l = 0; l < c.k; ++l) {
    EXPECT_EQ(set.mode(l), profiles[static_cast<std::size_t>(l)].mode());
  }
}

// Every count, non-null total and size of two banks, bitwise.
void expect_same_bank(const core::ProfileSet& a, const core::ProfileSet& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  ASSERT_EQ(a.cardinalities(), b.cardinalities());
  for (int l = 0; l < a.num_clusters(); ++l) {
    EXPECT_TRUE(same_bits(a.size(l), b.size(l))) << "l " << l;
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      EXPECT_TRUE(same_bits(a.non_null(l, r), b.non_null(l, r)))
          << "l " << l << " r " << r;
      for (data::Value v = 0; v < a.cardinalities()[r]; ++v) {
        EXPECT_TRUE(same_bits(a.count(l, r, v), b.count(l, r, v)))
            << "l " << l << " r " << r << " v " << v;
      }
    }
  }
}

// The loaders' constructor: serialised cluster-major counts (here the
// nested reference's) rebuild exactly the bank the fit accumulated, with
// non-null totals re-derived as the reference's int sums.
TEST(ProfileSet, FromCountsRebuildsTheAccumulatedBank) {
  const RandomCase c = null_feature_case(52);
  const auto profiles = core::build_profiles(c.ds, c.labels, c.k);
  std::vector<int> sizes;
  std::vector<int> counts;
  for (const core::ClusterProfile& profile : profiles) {
    sizes.push_back(profile.size());
    for (const auto& feature_counts : profile.counts()) {
      counts.insert(counts.end(), feature_counts.begin(),
                    feature_counts.end());
    }
  }
  const core::ProfileSet loaded =
      core::ProfileSet::from_counts(c.ds.cardinalities(), sizes, counts);
  expect_same_bank(loaded,
                   core::ProfileSet::from_assignment(c.ds, c.labels, c.k));
  for (int l = 0; l < c.k; ++l) {
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      EXPECT_EQ(loaded.non_null(l, r),
                profiles[static_cast<std::size_t>(l)].non_null_count(r));
    }
  }
  counts.pop_back();
  EXPECT_THROW(
      core::ProfileSet::from_counts(c.ds.cardinalities(), sizes, counts),
      std::invalid_argument);
}

// The online learners' snapshot rule: a decayed bank exports its chosen
// slots in order, each count and size truncated toward zero as an int
// conversion does, non-null totals re-derived from the truncated counts —
// exactly ClusterProfile::from_counts over the int-truncated histograms.
TEST(ProfileSet, TruncatedSnapshotMatchesIntTruncation) {
  const RandomCase c = random_case(53);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  set.scale(0.7);
  for (std::size_t i = 0; i < 40; ++i) set.add(c.labels[i], c.ds, i);
  set.scale(0.7);
  const std::vector<std::size_t> slots = {3, 0, 4, 1};
  const core::ProfileSet snapshot = set.truncated(slots);
  ASSERT_EQ(snapshot.num_clusters(), 4);
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const int l = static_cast<int>(slots[j]);
    std::vector<std::vector<int>> counts(c.ds.num_features());
    for (std::size_t r = 0; r < counts.size(); ++r) {
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        counts[r].push_back(static_cast<int>(set.count(l, r, v)));
      }
    }
    const core::ClusterProfile reference = core::ClusterProfile::from_counts(
        std::move(counts), static_cast<int>(set.size(l)));
    const int jl = static_cast<int>(j);
    EXPECT_EQ(snapshot.size(jl), reference.size());
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      EXPECT_EQ(snapshot.non_null(jl, r), reference.non_null_count(r));
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_EQ(snapshot.count(jl, r, v), reference.value_count(r, v));
      }
    }
  }
  // An integral bank copies through unchanged.
  const core::ProfileSet integral =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  expect_same_bank(integral.truncated({0, 1, 2, 3, 4}), integral);
}

TEST(ProfileSet, ScaleAppliesExponentialForgetting) {
  const RandomCase c = random_case(61, 40, 3, 2);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const double size_before = set.size(0);
  const double nn_before = set.non_null(0, 1);
  set.scale(0.5);
  EXPECT_DOUBLE_EQ(set.size(0), 0.5 * size_before);
  EXPECT_DOUBLE_EQ(set.non_null(0, 1), 0.5 * nn_before);
}

TEST(ProfileSet, BestClusterBreaksTiesToLowestId) {
  // Two identical clusters: every row ties; the lower id must win.
  data::Dataset ds(4, 1, {0, 0, 0, 0}, {2});
  core::ProfileSet set = core::ProfileSet::from_assignment(ds, {0, 1, 0, 1}, 2);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_EQ(set.best_cluster(ds, i, scratch), 0);
  }
}

// MGCPL's fused decision kernel against the sequence it replaces: the
// Eq. (7) transform in place, argmax, the winner masked to -1.0, argmax
// again. Each table's penalized_top2 must return the (v, h) of that
// sequence run with the same table's argmax and with a test-local
// first-max scan. Sizes cover k below, at and past one vector, tails of
// every length and a large k; the score patterns are built to collide:
// ties across lanes, ties straddling the vector/tail boundary, all-equal
// and all-zero rows, g_total == 0, and a winner whose lane also holds the
// rival.
struct Top2Case {
  std::vector<double> s;
  std::vector<double> g;
  std::vector<double> u;
  double g_total = 0.0;
};

std::size_t first_max(const std::vector<double>& t) {
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t l = 0; l < t.size(); ++l) {
    if (t[l] > best_score) {
      best_score = t[l];
      best = l;
    }
  }
  return best;
}

std::vector<double> penalised(const Top2Case& c) {
  std::vector<double> t(c.s.size());
  for (std::size_t l = 0; l < t.size(); ++l) {
    const double rho = c.g_total > 0.0 ? c.g[l] / c.g_total : 0.0;
    t[l] = (1.0 - rho) * c.u[l] * c.s[l];
  }
  return t;
}

std::vector<Top2Case> top2_cases(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Top2Case> cases;
  const auto make = [&](auto score, bool with_g) {
    Top2Case c;
    c.s.resize(k);
    c.g.assign(k, 0.0);
    c.u.resize(k);
    for (std::size_t l = 0; l < k; ++l) {
      c.s[l] = score(l);
      c.u[l] = rng.uniform(0.2, 1.0);
      if (with_g) {
        c.g[l] = static_cast<double>(rng.below(50));
        c.g_total += c.g[l];
      }
    }
    return c;
  };
  // Random scores with a live penalty.
  cases.push_back(make([&](std::size_t) { return rng.uniform(); }, true));
  // Coarse scores, no penalty, unit weights: ties across every lane.
  Top2Case coarse = make(
      [&](std::size_t) { return static_cast<double>(rng.below(3)) * 0.5; },
      false);
  coarse.u.assign(k, 1.0);
  cases.push_back(coarse);
  // All-equal and all-zero rows.
  Top2Case equal = make([](std::size_t) { return 0.75; }, false);
  equal.u.assign(k, 1.0);
  cases.push_back(equal);
  cases.push_back(make([](std::size_t) { return 0.0; }, true));
  // g_total == 0 with non-zero counts: no penalty may apply.
  Top2Case no_total = make([&](std::size_t) { return rng.uniform(); }, true);
  no_total.g_total = 0.0;
  cases.push_back(no_total);
  // A cluster holding every win (rho = 1) scores 0 whatever s is.
  Top2Case saturated = make([&](std::size_t) { return rng.uniform(); }, false);
  saturated.g[0] = 10.0;
  saturated.g_total = 10.0;
  cases.push_back(saturated);
  // Ties straddling the vector/tail boundary: the same best and second
  // values inside the last whole vector and in the tail.
  const std::size_t vec_end = k / 4 * 4;
  Top2Case straddle = make([&](std::size_t) { return rng.uniform(0.0, 0.5); },
                           false);
  straddle.u.assign(k, 1.0);
  if (vec_end > 0) {
    straddle.s[vec_end - 1] = 0.9;
    straddle.s[k - 1] = 0.9;
    straddle.s[vec_end / 2] = 0.8;
    if (vec_end < k) straddle.s[vec_end] = 0.8;
  }
  cases.push_back(straddle);
  // Winner and rival in the same lane (indices 4 apart), plus a tie for
  // the rival in another lane at a higher index.
  if (k >= 9) {
    Top2Case same_lane =
        make([&](std::size_t) { return rng.uniform(0.0, 0.5); }, false);
    same_lane.u.assign(k, 1.0);
    same_lane.s[5] = 0.95;
    same_lane.s[1] = 0.9;
    same_lane.s[k - 2] = 0.9;
    cases.push_back(same_lane);
    Top2Case reverse = same_lane;
    reverse.s[1] = 0.95;
    reverse.s[5] = 0.9;
    cases.push_back(reverse);
  }
  return cases;
}

TEST(SimdKernels, PenalizedTop2MatchesTransformAndTwoArgmax) {
  std::vector<const core::simd::Kernels*> tables = {
      &core::simd::scalar_kernels()};
  if (const core::simd::Kernels* avx2 = core::simd::detail_avx2_kernels()) {
    tables.push_back(avx2);
  }
  for (const std::size_t k : {2, 3, 4, 5, 7, 8, 9, 31, 317}) {
    const std::vector<Top2Case> cases = top2_cases(k, 1000 + k);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Top2Case& tc = cases[c];
      // Test-local reference: transform, first-max, mask, first-max.
      std::vector<double> t = penalised(tc);
      const std::size_t ref_v = first_max(t);
      t[ref_v] = -1.0;
      const std::size_t ref_h = first_max(t);
      for (std::size_t ti = 0; ti < tables.size(); ++ti) {
        const core::simd::Kernels& kr = *tables[ti];
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " case " << c << " table " << ti);
        // The replaced sequence, run with this table's argmax.
        std::vector<double> seq = penalised(tc);
        const auto seq_v = static_cast<std::size_t>(kr.argmax(seq.data(), k));
        seq[seq_v] = -1.0;
        const auto seq_h = static_cast<std::size_t>(kr.argmax(seq.data(), k));
        std::size_t v = k + 1;
        std::size_t h = k + 1;
        const std::vector<double> s_before = tc.s;
        kr.penalized_top2(tc.s.data(), tc.g.data(), tc.u.data(), tc.g_total,
                          k, &v, &h);
        EXPECT_EQ(v, ref_v);
        EXPECT_EQ(h, ref_h);
        EXPECT_EQ(v, seq_v);
        EXPECT_EQ(h, seq_h);
        EXPECT_EQ(tc.s, s_before);  // the scores are read, never written
      }
    }
  }
}

// The register-blocked batch argmax must label exactly as the per-row
// scan. The shapes deliberately straddle every boundary in the kernel:
// the 32-row gather tile, the 32-cluster register block, the 4-wide and
// scalar cluster tails, and k smaller than one vector — with ~10% missing
// cells throughout (kNoCell skips in the microkernel).
TEST(ProfileSet, BlockedBestClustersMatchPerRowArgmax) {
  struct Shape {
    std::uint64_t seed;
    std::size_t n;
    std::size_t d;
    int k;
  };
  const Shape shapes[] = {
      {71, 1, 4, 3},     // single row, k below one vector
      {72, 31, 5, 5},    // just under one row tile
      {73, 33, 6, 33},   // crosses the row tile; k one past a register block
      {74, 97, 3, 67},   // three tiles; k = 2 blocks + scalar tail
      {75, 101, 7, 70},  // k = 2 blocks + 4-wide tail + scalar tail
  };
  for (const Shape& s : shapes) {
    const RandomCase c = random_case(s.seed, s.n, s.d, s.k);
    const core::ProfileSet set =
        core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
    const std::size_t n = c.ds.num_objects();
    const std::size_t d = c.ds.num_features();

    std::vector<int> blocked(n, -2);
    set.best_clusters(c.ds, 0, n, blocked.data());
    std::vector<double> scratch;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(blocked[i], set.best_cluster(c.ds, i, scratch))
          << "seed " << s.seed << " row " << i;
    }
    // A sub-range lands in the same labels at shifted positions.
    if (n > 2) {
      std::vector<int> sub(n - 2, -2);
      set.best_clusters(c.ds, 1, n - 1, sub.data());
      for (std::size_t i = 1; i + 1 < n; ++i) {
        EXPECT_EQ(sub[i - 1], blocked[i]) << "seed " << s.seed;
      }
    }
    // The pre-encoded rows overload sees the same cells, same labels.
    std::vector<data::Value> rows(n * d);
    for (std::size_t i = 0; i < n; ++i) {
      c.ds.gather_row(i, rows.data() + i * d);
    }
    std::vector<int> from_rows(n, -2);
    set.best_clusters(rows.data(), n, from_rows.data());
    EXPECT_EQ(from_rows, blocked) << "seed " << s.seed;
  }
}

// Pins the freeze() thread-safety contract stated in profile_set.h: the
// first freeze() completes on one thread with a happens-before edge to
// every reader (here: thread creation), after which any number of
// threads may score concurrently — including re-entering freeze(), which
// must return immediately. The tsan CI job runs this suite, so an
// unsynchronised write in any read path is a build failure, not a hope.
TEST(ProfileSet, ConcurrentFrozenReads) {
  const RandomCase c = random_case(91, 256, 6, 40);
  const core::ProfileSet set =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const std::size_t n = c.ds.num_objects();
  set.freeze();
  std::vector<int> reference(n);
  set.best_clusters(c.ds, 0, n, reference.data());

  constexpr int kReaders = 4;
  std::vector<std::vector<int>> got(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      set.freeze();  // re-entry on a frozen set: immediate return
      std::vector<int> mine(n);
      set.best_clusters(c.ds, 0, n, mine.data());
      // Per-row reads share the same cache concurrently.
      std::vector<double> scores(static_cast<std::size_t>(c.k));
      set.score_all(c.ds, static_cast<std::size_t>(t), scores.data());
      got[static_cast<std::size_t>(t)] = std::move(mine);
    });
  }
  for (std::thread& r : readers) r.join();
  for (const std::vector<int>& labels : got) EXPECT_EQ(labels, reference);
}

TEST(Model, PredictMatchesPredictRow) {
  data::WellSeparatedConfig config;
  config.num_objects = 500;
  config.purity = 0.85;
  config.seed = 5;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.05, 3);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 3;
  options.seed = 9;
  options.evaluate = false;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());
  // The parallel batched predict agrees with the row-at-a-time path and is
  // stable across repeated calls (determinism under threading).
  const std::vector<int> batched = fit.model.predict(ds);
  EXPECT_EQ(batched, fit.model.predict(ds));
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_EQ(batched[i], fit.model.predict_row(ds.row_copy(i).data()));
  }
}

#if defined(__linux__) && defined(__GLIBC__)
// Fixed-seed label goldens for every registered method, captured when the
// flat ProfileSet kernel landed (byte-identical to the pre-rewire nested
// path). A mismatch means fixed-seed labels silently drifted — regenerate
// the table only for a *deliberate* algorithm change. Guarded to glibc
// Linux: the trajectories pass through libm (exp in Eq. 11), whose last-ulp
// behaviour differs across C libraries.
// expect_same_bank plus the frozen quotient cache: `got` must be frozen
// and its cached quotients equal `want`'s. They are read through frozen
// score_all on one-hot rows; with d a power of two, (0 + q) / d is exact,
// so equal outputs mean equal cached quotients.
void expect_same_frozen_bank(const core::ProfileSet& got,
                             const core::ProfileSet& want) {
  expect_same_bank(got, want);
  const std::size_t d = got.num_features();
  ASSERT_EQ(d & (d - 1), 0U) << "one-hot quotient probe needs d = 2^m";
  ASSERT_TRUE(got.frozen());
  want.freeze();
  const auto k = static_cast<std::size_t>(got.num_clusters());
  std::vector<data::Value> row(d, data::kMissing);
  std::vector<double> a(k);
  std::vector<double> b(k);
  for (std::size_t r = 0; r < d; ++r) {
    for (data::Value v = 0; v < got.cardinalities()[r]; ++v) {
      row[r] = v;
      got.score_all(row.data(), a.data());
      want.score_all(row.data(), b.data());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0)
          << "quotients of cell " << r << "/" << v;
    }
    row[r] = data::kMissing;
  }
}

// The refine pass moves only the rows that changed label between sweeps
// and hands its converged bank to the model. That bank must be the one
// from_assignment builds from the polished labels, bit for bit, and the
// labels must be the fixpoint of the rebuild-every-sweep loop it replaced
// (run here as the test-local reference).
TEST(Model, RefinedBankMatchesFromAssignment) {
  data::WellSeparatedConfig config;
  config.num_objects = 900;
  config.num_features = 8;
  config.num_clusters = 4;
  config.purity = 0.6;
  config.seed = 23;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.06, 4);
  const int k = 4;
  // Ground truth with a third of the labels scrambled: the polish has many
  // rows to move, over several sweeps.
  std::vector<int> labels = ds.labels();
  Rng rng(31);
  for (int& l : labels) {
    if (rng.bernoulli(0.35)) l = static_cast<int>(rng.below(k));
  }

  std::vector<int> reference = labels;
  int sweeps = 0;
  for (; sweeps < 100; ++sweeps) {
    const core::ProfileSet bank =
        core::ProfileSet::from_assignment(ds, reference, k);
    std::vector<int> next(reference.size());
    bank.best_clusters(ds, 0, ds.num_objects(), next.data());
    if (next == reference) break;
    reference.swap(next);
  }
  ASSERT_GE(sweeps, 3) << "the fixture should move rows over several sweeps";

  const api::Model model = api::Model::from_fit("kmodes", ds, labels, k);
  EXPECT_EQ(model.training_labels(), reference);
  expect_same_frozen_bank(model.profile_bank(),
                          core::ProfileSet::from_assignment(ds, reference, k));
}

// A polish that would empty a cluster keeps the unrefined labels, and the
// bank is theirs. Row 6 alone forms cluster 2 but scores the same against
// cluster 0, whose lower id wins the tie, so the first sweep empties 2.
TEST(Model, RefineThatEmptiesAClusterKeepsTheUnrefinedLabels) {
  const data::Dataset ds(7, 2, {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0},
                         {2, 2});
  const std::vector<int> labels = {0, 0, 0, 1, 1, 1, 2};
  const api::Model model = api::Model::from_fit("kmodes", ds, labels, 3);
  EXPECT_EQ(model.training_labels(), labels);
  expect_same_frozen_bank(model.profile_bank(),
                          core::ProfileSet::from_assignment(ds, labels, 3));
}

TEST(KernelGoldens, FixedSeedLabelsAreUnchangedAcrossTheRegistry) {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.72;
  config.seed = 13;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.08, 99);

  const auto fnv1a = [](std::uint64_t h, const std::vector<int>& v) {
    for (const int x : v) {
      auto u = static_cast<std::uint32_t>(x);
      for (int b = 0; b < 4; ++b) {
        h ^= (u >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };

  const std::vector<std::pair<std::string, std::uint64_t>> goldens = {
      {"adc", 0xfa5bc0890dea5a65ULL},
      {"fkmawcw", 0x952fac84ac019ba7ULL},
      {"gudmm", 0xbf419d99e5dacda5ULL},
      {"kmodes", 0xbf419d99e5dacda5ULL},
      {"linkage-average", 0x2e3c3ee3572bbf45ULL},
      {"linkage-complete", 0xcade976fe88f13f4ULL},
      {"linkage-single", 0x2e3c3ee3572bbf45ULL},
      {"mcdc", 0xb95c6b07541d9f45ULL},
      {"mcdc+fkmawcw", 0xb95c6b07541d9f45ULL},
      {"mcdc+gudmm", 0x2e3c3ee3572bbf45ULL},
      {"mcdc+kmodes", 0xb95c6b07541d9f45ULL},
      {"mcdc-dist", 0xee915b63ea6ffda5ULL},
      {"mcdc-online", 0xb95c6b07541d9f45ULL},
      {"mcdc1", 0xee915b63ea6ffda5ULL},
      {"mcdc2", 0x4afc7a195d994b85ULL},
      {"mcdc3", 0x3febd69b0c634a65ULL},
      {"mcdc4", 0xb95c6b07541d9f45ULL},
      {"rock", 0x185f76b3430afd22ULL},
      {"wocil", 0xfa5bc0890dea5a65ULL},
  };

  api::Engine engine;
  std::size_t covered = 0;
  for (const auto& [method, expected] : goldens) {
    api::FitOptions options;
    options.method = method;
    options.k = 3;
    options.seed = 17;
    options.evaluate = false;
    options.stage_reports = false;
    const api::FitResult fit = engine.fit(ds, options);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, fit.report.labels);
    h = fnv1a(h, fit.model.training_labels());
    if (fit.ok()) h = fnv1a(h, fit.model.predict(ds));
    EXPECT_EQ(h, expected) << "fixed-seed labels drifted for " << method;
    ++covered;
  }
  // Every registered method must be pinned; a new registration has to add
  // its golden here.
  EXPECT_EQ(covered, api::registry().methods().size());
}
#endif  // __linux__ && __GLIBC__

// The zero-copy analogue of the golden table: every registered method must
// produce byte-identical labels when fitted through a row-index DatasetView
// and when fitted on the materialised deep copy of the same rows. This is
// the contract that lets DistributedMcdc hand workers views instead of
// Dataset::subset copies without moving a single golden hash. (No libm
// guard needed: both fits run the exact same trajectory, so the comparison
// is platform-independent.)
TEST(KernelGoldens, ViewFitsMatchMaterializedFits) {
  data::WellSeparatedConfig config;
  config.num_objects = 180;
  config.num_features = 6;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.purity = 0.75;
  config.seed = 29;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.06, 7);

  // A non-trivial selection: drop every fifth row, keep the rest in order.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (i % 5 != 0) rows.push_back(i);
  }
  const data::DatasetView view(ds, rows);
  const data::Dataset copy = view.materialize();

  api::Engine engine;
  for (const api::MethodInfo& method : api::registry().methods()) {
    api::FitOptions options;
    options.method = method.key;
    options.k = 3;
    options.seed = 23;
    options.evaluate = false;
    options.stage_reports = false;
    const api::FitResult from_view = engine.fit(view, options);
    const api::FitResult from_copy = engine.fit(copy, options);
    EXPECT_EQ(from_view.status.code, from_copy.status.code) << method.key;
    EXPECT_EQ(from_view.report.labels, from_copy.report.labels)
        << "view/copy labels diverged for " << method.key;
    if (from_view.ok() && from_copy.ok()) {
      EXPECT_EQ(from_view.model.training_labels(),
                from_copy.model.training_labels())
          << method.key;
      // Serving side: predicting through a view matches predicting the
      // materialised rows.
      EXPECT_EQ(from_copy.model.predict(view), from_copy.model.predict(copy))
          << method.key;
    }
  }
}

}  // namespace
}  // namespace mcdc
