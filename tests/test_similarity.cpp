// Tests for the object-cluster similarity substrate (Eqs. 1-2, 14) and the
// feature-contribution weights (Eqs. 15-18), on the library's histogram
// bank (core::ProfileSet). The Eq. (14) cases score through the weighted-
// quotient bank the competitive stage sweeps, and are checked against the
// nested per-cluster reference (tests/support) as well.
#include <gtest/gtest.h>

#include <numeric>

#include "core/feature_weights.h"
#include "core/profile_set.h"
#include "core/simd.h"
#include "data/dataset.h"
#include "support/nested_profile.h"

namespace mcdc::core {
namespace {

using data::Dataset;
using data::kMissing;

// 4 objects, 2 features; feature 0 has 3 values, feature 1 has 2.
Dataset tiny() {
  return Dataset(4, 2,
                 {0, 0,   //
                  0, 1,   //
                  1, 0,   //
                  2, 1},
                 {3, 2});
}

// Eq. (14) of cluster 0 for object i under `weights`: one
// score_row_f64 sweep of the weighted-quotient bank, denominator 1.
double weighted_similarity(const ProfileSet& set,
                           const std::vector<double>& weights,
                           const Dataset& ds, std::size_t i) {
  AlignedVec<double> bank;
  set.fill_weighted_quotients({weights}, bank);
  std::vector<std::size_t> cells(ds.num_features());
  set.row_cells(ds, i, cells.data());
  double score = 0.0;
  simd::kernels().score_row_f64(&score, bank.data(), cells.data(),
                                cells.size(), 1.0, 1);
  return score;
}

TEST(ProfileSetSimilarity, AddRemoveRoundTrip) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  EXPECT_TRUE(p.empty(0));
  p.add(0, ds, 0);
  p.add(0, ds, 1);
  EXPECT_EQ(p.size(0), 2.0);
  EXPECT_EQ(p.count(0, 0, 0), 2.0);
  EXPECT_EQ(p.count(0, 1, 0), 1.0);
  EXPECT_EQ(p.non_null(0, 0), 2.0);
  p.remove(0, ds, 0);
  EXPECT_EQ(p.size(0), 1.0);
  EXPECT_EQ(p.count(0, 0, 0), 1.0);
  p.remove(0, ds, 1);
  EXPECT_TRUE(p.empty(0));
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(p.non_null(0, r), 0.0);
  }
}

TEST(ProfileSetSimilarity, ValueSimilarityIsFrequencyRatio) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);  // (0, 0)
  p.add(0, ds, 1);  // (0, 1)
  p.add(0, ds, 2);  // (1, 0)
  // Psi_{F0=0} = 2 of 3.
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 2), 0.0);
}

TEST(ProfileSetSimilarity, SimilarityAveragesOverFeatures) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);
  p.add(0, ds, 1);
  // Object 0 = (0,0): s = 1/2 * (2/2 + 1/2) = 0.75.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds, 0), 0.75);
  // Object 3 = (2,1): s = 1/2 * (0 + 1/2) = 0.25.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds, 3), 0.25);
}

TEST(ProfileSetSimilarity, SelfSimilarityOfSingletonIsOne) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 2);
  EXPECT_DOUBLE_EQ(p.score_one(0, ds, 2), 1.0);
}

TEST(ProfileSetSimilarity, WeightedSimilarityUniformMatchesEq1) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  ClusterProfile reference(ds.cardinalities());
  for (const std::size_t i : {0, 1, 3}) {
    p.add(0, ds, i);
    reference.add(ds, i);
  }
  const std::vector<double> uniform(2, 0.5);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const double weighted = weighted_similarity(p, uniform, ds, i);
    EXPECT_NEAR(weighted, p.score_one(0, ds, i), 1e-12);
    EXPECT_EQ(weighted, reference.weighted_similarity(ds, i, uniform));
  }
}

TEST(ProfileSetSimilarity, WeightedSimilaritySkewsTowardHeavyFeature) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);  // (0,0)
  // Object 1 = (0,1): matches feature 0 only.
  EXPECT_DOUBLE_EQ(weighted_similarity(p, {1.0, 0.0}, ds, 1), 1.0);
  EXPECT_DOUBLE_EQ(weighted_similarity(p, {0.0, 1.0}, ds, 1), 0.0);
}

TEST(ProfileSetSimilarity, MissingValuesAreNeutral) {
  // One feature, one object missing.
  const Dataset ds(3, 1, {0, kMissing, 0}, {2});
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);
  p.add(0, ds, 1);
  // Psi_{F0 != NULL} = 1 although the cluster has two members.
  EXPECT_EQ(p.size(0), 2.0);
  EXPECT_EQ(p.non_null(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 1.0);
  // The missing value itself has similarity zero.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds, 1), 0.0);
}

TEST(ProfileSetSimilarity, AllNullColumnYieldsZero) {
  const Dataset ds(2, 1, {kMissing, kMissing}, {2});
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 0.0);
}

TEST(ProfileSetSimilarity, ModePicksMostFrequentValue) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  p.add(0, ds, 0);
  p.add(0, ds, 1);
  p.add(0, ds, 2);
  const auto mode = p.mode(0);
  EXPECT_EQ(mode[0], 0);  // value 0 appears twice
  EXPECT_EQ(mode[1], 0);  // tie 0/1 (counts differ: feature1 -> 0:2, 1:1)
}

TEST(ProfileSetSimilarity, ModeOfEmptyClusterIsMissing) {
  const Dataset ds = tiny();
  const ProfileSet p(ds.cardinalities(), 1);
  const auto mode = p.mode(0);
  EXPECT_EQ(mode[0], kMissing);
  EXPECT_EQ(mode[1], kMissing);
}

TEST(FromAssignment, GroupsByAssignment) {
  const Dataset ds = tiny();
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, -1}, 2);
  ASSERT_EQ(profiles.num_clusters(), 2);
  EXPECT_EQ(profiles.size(0), 2.0);
  EXPECT_EQ(profiles.size(1), 1.0);
}

TEST(FromAssignment, Validation) {
  const Dataset ds = tiny();
  EXPECT_THROW(ProfileSet::from_assignment(ds, {0, 0}, 2),
               std::invalid_argument);
  EXPECT_THROW(ProfileSet::from_assignment(ds, {0, 0, 5, 0}, 2),
               std::invalid_argument);
}

// --- Feature weights (Eqs. 15-18) ---------------------------------------------

TEST(FeatureWeights, SumToOne) {
  const Dataset ds = tiny();
  const GlobalCounts global(ds);
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  for (int l = 0; l < profiles.num_clusters(); ++l) {
    const auto w = feature_weights(global, profiles, l);
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
    for (double x : w) EXPECT_GE(x, 0.0);
  }
}

TEST(FeatureWeights, DiscriminativeFeatureDominates) {
  // Feature 0 perfectly separates clusters {0,1} vs {2,3}; feature 1 is
  // identical everywhere and separates nothing.
  const Dataset ds(4, 2,
                   {0, 0,  //
                    0, 0,  //
                    1, 0,  //
                    1, 0},
                   {2, 1});
  const GlobalCounts global(ds);
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  const auto w = feature_weights(global, profiles, 0);
  EXPECT_GT(w[0], 0.99);
  EXPECT_LT(w[1], 0.01);
}

TEST(FeatureWeights, AlphaIsZeroWhenDistributionsMatch) {
  // Cluster's value distribution equals the complement's -> alpha = 0.
  const Dataset ds(4, 1, {0, 1, 0, 1}, {2});
  const GlobalCounts global(ds);
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(inter_cluster_difference(global, profiles, 0, 0), 0.0, 1e-12);
}

TEST(FeatureWeights, AlphaIsOneForDisjointValues) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const GlobalCounts global(ds);
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  // Distributions (1,0) vs (0,1): Euclidean distance sqrt(2), normalised.
  EXPECT_NEAR(inter_cluster_difference(global, profiles, 0, 0), 1.0, 1e-12);
}

TEST(FeatureWeights, BetaIsOneForPureCluster) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(intra_cluster_similarity(profiles, 0, 0), 1.0, 1e-12);
}

TEST(FeatureWeights, BetaOfMixedCluster) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const auto profiles = ProfileSet::from_assignment(ds, {0, 0, 0, 0}, 1);
  // Two values, two members each: sum counts^2 / (n * nonnull) = 8/16.
  EXPECT_NEAR(intra_cluster_similarity(profiles, 0, 0), 0.5, 1e-12);
}

TEST(FeatureWeights, DegenerateClusterFallsBackToUniform) {
  // Cluster distribution identical to complement on every feature: all
  // H_rl = 0 -> uniform weights.
  const Dataset ds(4, 2, {0, 0, 1, 1, 0, 0, 1, 1}, {2, 2});
  const GlobalCounts global(ds);
  const auto profiles = ProfileSet::from_assignment(ds, {0, 1, 0, 1}, 2);
  const auto w = feature_weights(global, profiles, 0);
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

}  // namespace
}  // namespace mcdc::core
