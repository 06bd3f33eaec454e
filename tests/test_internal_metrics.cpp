// Tests for the internal (label-free) categorical validity indices.
#include "metrics/internal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/simd.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace mcdc::metrics {
namespace {

// An 8-worker pool regardless of the machine, so the width sweeps below
// really fan out. Runs before main(), hence before the first global_pool()
// call in this binary; an explicit MCDC_THREADS in the environment wins.
const bool kForcePoolWidth = [] {
  ::setenv("MCDC_THREADS", "8", /*overwrite=*/0);
  return true;
}();

// Two perfectly separated blocks: rows 0-2 all 'a', rows 3-5 all 'b'.
data::Dataset two_blocks() {
  data::DatasetBuilder builder({"f1", "f2", "f3"});
  for (int i = 0; i < 3; ++i) builder.add_row({"a", "a", "a"});
  for (int i = 0; i < 3; ++i) builder.add_row({"b", "b", "b"});
  return std::move(builder).build();
}

const std::vector<int> kBlockLabels = {0, 0, 0, 1, 1, 1};

// --- PartitionProfile ----------------------------------------------------------

TEST(PartitionProfile, CountsAndModes) {
  const auto ds = two_blocks();
  const PartitionProfile profile(ds, kBlockLabels);
  EXPECT_EQ(profile.num_clusters(), 2);
  EXPECT_EQ(profile.cluster_size(0), 3u);
  EXPECT_EQ(profile.cluster_size(1), 3u);
  EXPECT_EQ(profile.count(0, 0, 0), 3);  // cluster 0, feature 0, value 'a'
  EXPECT_EQ(profile.count(0, 0, 1), 0);
  EXPECT_EQ(profile.mode(0, 0), 0);
  EXPECT_EQ(profile.mode(1, 0), 1);
}

TEST(PartitionProfile, MeanDistanceZeroInsidePureCluster) {
  const auto ds = two_blocks();
  const PartitionProfile profile(ds, kBlockLabels);
  EXPECT_DOUBLE_EQ(profile.mean_distance(ds, 0, 0, false), 0.0);
  EXPECT_DOUBLE_EQ(profile.mean_distance(ds, 0, 0, true), 0.0);
  // Distance from a block-0 row to the pure block-1 cluster is maximal.
  EXPECT_DOUBLE_EQ(profile.mean_distance(ds, 0, 1, false), 1.0);
}

TEST(PartitionProfile, SizeMismatchThrows) {
  const auto ds = two_blocks();
  EXPECT_THROW(PartitionProfile(ds, {0, 1}), std::invalid_argument);
}

TEST(PartitionProfile, MissingCellsExcluded) {
  data::DatasetBuilder builder({"f1", "f2"});
  builder.add_row({"a", "?"});
  builder.add_row({"a", "x"});
  const auto ds = std::move(builder).build();
  const PartitionProfile profile(ds, {0, 0});
  EXPECT_EQ(profile.non_null(0, 0), 2);
  EXPECT_EQ(profile.non_null(0, 1), 1);
}

// --- Compactness / separation ---------------------------------------------------

TEST(Compactness, PerfectBlocksScoreOne) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(compactness(ds, kBlockLabels), 1.0);
}

TEST(Compactness, MergedBlocksScoreHalf) {
  // One cluster holding both pure blocks: every feature matches half the
  // members -> similarity 0.5.
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(compactness(ds, {0, 0, 0, 0, 0, 0}), 0.5);
}

TEST(ModeSeparation, DisjointBlocksFullySeparated) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(mode_separation(ds, kBlockLabels), 1.0);
}

TEST(ModeSeparation, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(mode_separation(ds, {0, 0, 0, 0, 0, 0}), 0.0);
}

// --- Silhouette -----------------------------------------------------------------

TEST(Silhouette, PerfectBlocksScoreOne) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(categorical_silhouette(ds, kBlockLabels), 1.0);
}

TEST(Silhouette, RandomSplitOfUniformDataNearZeroOrNegative) {
  data::DatasetBuilder builder({"f1"});
  for (int i = 0; i < 8; ++i) builder.add_row({"a"});
  const auto ds = std::move(builder).build();
  // Identical objects split arbitrarily: a = 0 = b is degenerate; the
  // silhouette must not report good structure.
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LE(categorical_silhouette(ds, labels), 0.0 + 1e-12);
}

TEST(Silhouette, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(categorical_silhouette(ds, {0, 0, 0, 0, 0, 0}), 0.0);
}

TEST(Silhouette, PlantedClustersBeatShuffledLabels) {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  config.num_clusters = 3;
  config.purity = 0.9;
  const auto ds = data::well_separated(config);
  const double planted = categorical_silhouette(ds, ds.labels());
  std::vector<int> shuffled = ds.labels();
  Rng rng(3);
  rng.shuffle(shuffled);
  EXPECT_GT(planted, categorical_silhouette(ds, shuffled) + 0.2);
}

// --- Category utility -------------------------------------------------------------

TEST(CategoryUtility, PerfectBlocks) {
  // Hand computation: P(C)=0.5 each; within clusters all P(v|C)^2 sum to 1
  // per feature (3 features); globally each value has P 0.5 -> sum 0.5 per
  // feature. CU = (1/2) * [0.5*3*(1-0.5) + 0.5*3*(1-0.5)] = 0.75.
  const auto ds = two_blocks();
  EXPECT_NEAR(category_utility(ds, kBlockLabels), 0.75, 1e-12);
}

TEST(CategoryUtility, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_NEAR(category_utility(ds, {0, 0, 0, 0, 0, 0}), 0.0, 1e-12);
}

TEST(CategoryUtility, PlantedBeatsShuffled) {
  data::WellSeparatedConfig config;
  config.num_objects = 200;
  config.num_clusters = 4;
  const auto ds = data::well_separated(config);
  std::vector<int> shuffled = ds.labels();
  Rng rng(5);
  rng.shuffle(shuffled);
  EXPECT_GT(category_utility(ds, ds.labels()),
            category_utility(ds, shuffled));
}

// --- Davies-Bouldin ---------------------------------------------------------------

TEST(DaviesBouldin, PerfectBlocksScoreZero) {
  // Zero scatter, positive mode distance -> ratio 0.
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(davies_bouldin_modes(ds, kBlockLabels), 0.0);
}

TEST(DaviesBouldin, CoincidentModesAreInfinite) {
  data::DatasetBuilder builder({"f1", "f2"});
  builder.add_row({"a", "a"});
  builder.add_row({"a", "b"});
  builder.add_row({"a", "a"});
  builder.add_row({"a", "b"});
  const auto ds = std::move(builder).build();
  // Both clusters have mode (a, a|b) -> identical modes, positive scatter.
  const double db = davies_bouldin_modes(ds, {0, 0, 1, 1});
  EXPECT_TRUE(std::isinf(db));
}

TEST(DaviesBouldin, PlantedBeatsShuffled) {
  data::WellSeparatedConfig config;
  config.num_objects = 200;
  config.num_clusters = 3;
  const auto ds = data::well_separated(config);
  std::vector<int> shuffled = ds.labels();
  Rng rng(7);
  rng.shuffle(shuffled);
  EXPECT_LT(davies_bouldin_modes(ds, ds.labels()),
            davies_bouldin_modes(ds, shuffled));
}

// --- Bundle + property sweep -------------------------------------------------------

TEST(InternalScores, BundleMatchesIndividuals) {
  const auto ds = two_blocks();
  const auto bundle = internal_scores(ds, kBlockLabels);
  EXPECT_DOUBLE_EQ(bundle.compactness, compactness(ds, kBlockLabels));
  EXPECT_DOUBLE_EQ(bundle.silhouette,
                   categorical_silhouette(ds, kBlockLabels));
  EXPECT_DOUBLE_EQ(bundle.category_utility,
                   category_utility(ds, kBlockLabels));
}

// --- Bitwise references ------------------------------------------------------
//
// The straightforward forms of the silhouette (b(i) as one mean_distance
// per (row, cluster) pair, O(n k d) divisions), of the Davies-Bouldin
// scatter (one sweep over all rows per cluster) and of the mode
// separation. The library's mismatch-bank silhouette, one-pass scatter and
// shared-profile internal_scores must reproduce them bit for bit at every
// pool width and SIMD dispatch level.

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

double reference_silhouette(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  const PartitionProfile profile(ds, labels);
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const int own = labels[i];
    if (profile.cluster_size(own) <= 1) continue;
    const double a = profile.mean_distance(ds, i, own, true);
    double b = std::numeric_limits<double>::infinity();
    for (int l = 0; l < k; ++l) {
      if (l == own || profile.cluster_size(l) == 0) continue;
      b = std::min(b, profile.mean_distance(ds, i, l, false));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0.0) sum += (b - a) / denom;
  }
  return sum / static_cast<double>(ds.num_objects());
}

double reference_mode_distance(const PartitionProfile& profile, std::size_t d,
                               int l, int t) {
  int mismatches = 0;
  int compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value a = profile.mode(l, r);
    const data::Value b = profile.mode(t, r);
    if (a == data::kMissing || b == data::kMissing) continue;
    ++compared;
    if (a != b) ++mismatches;
  }
  if (compared == 0) return 0.0;
  return static_cast<double>(mismatches) / static_cast<double>(compared);
}

double reference_separation(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  const PartitionProfile profile(ds, labels);
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  double sum = 0.0;
  int pairs = 0;
  for (int l = 0; l < k; ++l) {
    for (int t = l + 1; t < k; ++t) {
      sum += reference_mode_distance(profile, ds.num_features(), l, t);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

double reference_scatter(const data::DatasetView& ds,
                         const std::vector<int>& labels,
                         const PartitionProfile& profile, int l) {
  double sum = 0.0;
  std::size_t members = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (labels[i] != l) continue;
    ++members;
    int mismatches = 0;
    int compared = 0;
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      const data::Value v = ds.at(i, r);
      const data::Value m = profile.mode(l, r);
      if (v == data::kMissing || m == data::kMissing) continue;
      ++compared;
      if (v != m) ++mismatches;
    }
    if (compared > 0) {
      sum += static_cast<double>(mismatches) / static_cast<double>(compared);
    }
  }
  return members == 0 ? 0.0 : sum / static_cast<double>(members);
}

double reference_davies_bouldin(const data::DatasetView& ds,
                                const std::vector<int>& labels) {
  const PartitionProfile profile(ds, labels);
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  std::vector<double> scatter;
  for (int l = 0; l < k; ++l) {
    scatter.push_back(reference_scatter(ds, labels, profile, l));
  }
  double sum = 0.0;
  for (int l = 0; l < k; ++l) {
    double worst = 0.0;
    for (int t = 0; t < k; ++t) {
      if (t == l) continue;
      const double dist =
          reference_mode_distance(profile, ds.num_features(), l, t);
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

struct LabelledTable {
  data::Dataset ds;
  std::vector<int> labels;
};

// 600 rows, 7 features of cardinality 5, label ids 0..5: row 0 is the
// singleton cluster 5, id 4 is never used (an empty cluster), the rest
// cycle through 0..3. Each cell takes its cluster's prototype value with
// probability 0.7 and goes missing with probability `missing`.
// `invalid_terms` additionally blanks feature 2 for every member of
// cluster 1 (a non-empty cluster with no observed value there) and all of
// row 1 (an object with nothing to compare).
LabelledTable edge_case_table(double missing, bool invalid_terms,
                              std::uint64_t seed) {
  constexpr std::size_t kRows = 600;
  constexpr std::size_t kFeatures = 7;
  constexpr int kCard = 5;
  Rng rng(seed);
  data::DatasetBuilder builder({"f0", "f1", "f2", "f3", "f4", "f5", "f6"});
  LabelledTable out;
  for (std::size_t i = 0; i < kRows; ++i) {
    const int label = i == 0 ? 5 : static_cast<int>(i % 4);
    out.labels.push_back(label);
    std::vector<std::string> row;
    for (std::size_t r = 0; r < kFeatures; ++r) {
      const int v = rng.bernoulli(0.7) ? (label + static_cast<int>(r)) % kCard
                                       : static_cast<int>(rng.below(kCard));
      const bool blank = rng.bernoulli(missing) ||
                         (invalid_terms && ((label == 1 && r == 2) || i == 1));
      row.push_back(blank ? "?" : "v" + std::to_string(v));
    }
    builder.add_row(row);
  }
  out.ds = std::move(builder).build();
  return out;
}

// Runs every index at pool widths 1/2/8 under both SIMD dispatch levels
// and asserts bit equality against the references.
void expect_bitwise_references(const LabelledTable& table) {
  const data::Dataset& ds = table.ds;
  const std::vector<int>& labels = table.labels;
  const std::uint64_t silhouette = bits(reference_silhouette(ds, labels));
  const std::uint64_t db = bits(reference_davies_bouldin(ds, labels));
  const std::uint64_t separation = bits(reference_separation(ds, labels));
  const std::uint64_t compact = bits(compactness(ds, labels));
  const std::uint64_t cu = bits(category_utility(ds, labels));
  const core::simd::Level entry = core::simd::level();
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    for (const std::size_t width : {1u, 2u, 8u}) {
      const std::size_t previous = set_parallel_width(width);
      const std::string at =
          std::string(core::simd::level_name(core::simd::level())) + " x " +
          std::to_string(width) + " workers";
      EXPECT_EQ(bits(categorical_silhouette(ds, labels)), silhouette) << at;
      EXPECT_EQ(bits(davies_bouldin_modes(ds, labels)), db) << at;
      EXPECT_EQ(bits(mode_separation(ds, labels)), separation) << at;
      const InternalScores all = internal_scores(ds, labels);
      EXPECT_EQ(bits(all.silhouette), silhouette) << at;
      EXPECT_EQ(bits(all.davies_bouldin), db) << at;
      EXPECT_EQ(bits(all.separation), separation) << at;
      EXPECT_EQ(bits(all.compactness), compact) << at;
      EXPECT_EQ(bits(all.category_utility), cu) << at;
      set_parallel_width(previous);
    }
  }
  core::simd::set_level(entry);
}

TEST(BitwiseReference, PoolHasEightWorkers) {
  ASSERT_TRUE(kForcePoolWidth);
  EXPECT_GE(global_pool().size(), 8u);
}

TEST(BitwiseReference, CleanTableWithSingletonAndEmptyCluster) {
  expect_bitwise_references(edge_case_table(0.0, false, 11));
}

TEST(BitwiseReference, NullCells) {
  expect_bitwise_references(edge_case_table(0.15, false, 12));
}

TEST(BitwiseReference, ClusterWithAnAllNullFeature) {
  const LabelledTable table = edge_case_table(0.15, true, 13);
  // The invalid-term path is really taken: cluster 1 has members but no
  // observed value of feature 2.
  const PartitionProfile profile(table.ds, table.labels);
  ASSERT_GT(profile.cluster_size(1), 0u);
  ASSERT_EQ(profile.non_null(1, 2), 0);
  ASSERT_EQ(profile.cluster_size(4), 0u);
  ASSERT_EQ(profile.cluster_size(5), 1u);
  expect_bitwise_references(table);
}

TEST(BitwiseReference, PlantedAndShuffledLabels) {
  data::WellSeparatedConfig config;
  config.num_objects = 500;
  config.num_clusters = 4;
  config.purity = 0.75;
  const data::Dataset ds = data::well_separated(config);
  std::vector<int> shuffled = ds.labels();
  Rng rng(9);
  rng.shuffle(shuffled);
  expect_bitwise_references({ds, ds.labels()});
  expect_bitwise_references({ds, shuffled});
}

class InternalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InternalSweep, BoundsAndSanity) {
  Rng rng(GetParam());
  data::WellSeparatedConfig config;
  config.num_objects = 60 + rng.below(100);
  config.num_clusters = 2 + static_cast<int>(rng.below(4));
  config.cardinality = 6;  // >= any num_clusters drawn above
  config.seed = GetParam();
  const auto ds = data::well_separated(config);
  const auto& labels = ds.labels();
  const double c = compactness(ds, labels);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
  const double s = categorical_silhouette(ds, labels);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
  EXPECT_GE(mode_separation(ds, labels), 0.0);
  EXPECT_LE(mode_separation(ds, labels), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternalSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mcdc::metrics
