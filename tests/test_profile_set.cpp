// Tests for the flat ProfileSet scoring kernel (profile_set.h): equivalence
// with the per-cluster ClusterProfile path on randomised datasets with
// NULLs, the weighted-quotient bank (its sums against weighted_similarity
// and its column refresh against a full refill, both bitwise), incremental
// maintenance, cluster append/remove restriding,
// out-of-domain clamping, and fixed-seed label goldens across every
// registered method (the byte-identity contract of the kernel rewire);
// plus the register-blocked batch argmax vs the per-row scan, the compact
// float32 bank round trip and its Model-level adoption gate, and the
// freeze() single-writer contract under concurrent frozen readers (the
// tsan CI job runs this binary).
#include "core/profile_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/similarity.h"
#include "core/simd.h"
#include "data/noise.h"
#include "data/synthetic.h"

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
    // Materialised profiles round-trip the histograms.
    const core::ClusterProfile materialised = set.profile(l);
    EXPECT_EQ(materialised.counts(), profiles[static_cast<std::size_t>(l)].counts());
    EXPECT_EQ(materialised.size(), profiles[static_cast<std::size_t>(l)].size());
  }
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

// Compact-bank semantics: freeze_compact narrows the quotients to f32
// (batch and per-row paths agree with each other on that bank),
// thaw_compact rebuilds the bit-exact f64 cache from the counts, and any
// mutation thaws both banks.
TEST(ProfileSet, CompactFreezeRoundTripAndThaw) {
  const RandomCase c = random_case(81, 120, 6, 40);
  core::ProfileSet set =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const std::size_t n = c.ds.num_objects();

  set.freeze();
  ASSERT_TRUE(set.frozen());
  EXPECT_FALSE(set.compact_frozen());
  std::vector<int> f64_labels(n);
  set.best_clusters(c.ds, 0, n, f64_labels.data());

  set.freeze_compact();
  EXPECT_TRUE(set.frozen());
  EXPECT_TRUE(set.compact_frozen());
  std::vector<int> f32_labels(n);
  set.best_clusters(c.ds, 0, n, f32_labels.data());
  // The compact bank is not bit-contracted against f64, but the batch and
  // per-row paths must agree with each other on it.
  std::vector<double> scratch;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(f32_labels[i], set.best_cluster(c.ds, i, scratch)) << i;
  }
  // Idempotent: a second freeze_compact is a no-op.
  set.freeze_compact();
  EXPECT_TRUE(set.compact_frozen());

  // thaw_compact rebuilds the f64 cache deterministically: same labels.
  set.thaw_compact();
  EXPECT_TRUE(set.frozen());
  EXPECT_FALSE(set.compact_frozen());
  std::vector<int> rebuilt(n);
  set.best_clusters(c.ds, 0, n, rebuilt.data());
  EXPECT_EQ(rebuilt, f64_labels);

  // Any mutation thaws both banks.
  set.freeze_compact();
  set.add(0, c.ds, 0);
  EXPECT_FALSE(set.frozen());
  EXPECT_FALSE(set.compact_frozen());
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

// The Model-level adoption gate: try_compact_scorer adopts the float32
// bank only on proven label-identity over the supplied rows, proves
// nothing from empty input, and FitOptions::compact_scorer wires the same
// gate through Engine::fit without moving the fit's labels.
TEST(Model, TryCompactScorerGate) {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  config.purity = 0.8;
  config.seed = 3;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.05, 11);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 3;
  options.seed = 9;
  options.evaluate = false;
  api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_FALSE(fit.model.compact_scorer());
  const std::vector<int> f64_labels = fit.model.predict(ds);

  // Empty input proves nothing: the f64 bank stays.
  EXPECT_FALSE(fit.model.try_compact_scorer(nullptr, 0));
  EXPECT_FALSE(fit.model.compact_scorer());

  const bool adopted = fit.model.try_compact_scorer(ds);
  EXPECT_EQ(fit.model.compact_scorer(), adopted);
  if (adopted) {
    // The gate's promise: every validated row keeps its label.
    EXPECT_EQ(fit.model.predict(ds), f64_labels);
  }

  // The Engine wiring reaches the same decision and the same labels.
  options.compact_scorer = true;
  const api::FitResult compact_fit = engine.fit(ds, options);
  ASSERT_TRUE(compact_fit.ok());
  EXPECT_EQ(compact_fit.model.compact_scorer(), adopted);
  EXPECT_EQ(compact_fit.report.labels, fit.report.labels);
  EXPECT_EQ(compact_fit.model.predict(ds), f64_labels);
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
