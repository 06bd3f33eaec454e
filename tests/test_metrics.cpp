// Validity-index tests: exact values against hand-computed contingency
// tables and published reference values, bitwise equality of the one-table
// score_all and tabulated EMI with the per-index evaluation they replaced,
// plus property sweeps.
#include "metrics/indices.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "metrics/contingency.h"
#include "metrics/hungarian.h"

namespace mcdc::metrics {
namespace {

// --- Contingency -------------------------------------------------------------

TEST(Contingency, TableAndMargins) {
  const std::vector<int> a = {0, 0, 1, 1, 1};
  const std::vector<int> b = {0, 1, 1, 1, 0};
  const Contingency ct(a, b);
  EXPECT_EQ(ct.rows(), 2u);
  EXPECT_EQ(ct.cols(), 2u);
  EXPECT_EQ(ct.total(), 5);
  EXPECT_EQ(ct.at(0, 0), 1);
  EXPECT_EQ(ct.at(0, 1), 1);
  EXPECT_EQ(ct.at(1, 0), 1);
  EXPECT_EQ(ct.at(1, 1), 2);
  EXPECT_EQ(ct.row_sums(), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(ct.col_sums(), (std::vector<std::int64_t>{2, 3}));
}

TEST(Contingency, SparseIdsAreCompacted) {
  // Streaming stable cluster ids are sparse and can grow without bound; the
  // table must stay |distinct| wide and every index must be invariant to
  // the relabeling.
  const std::vector<int> dense = {0, 0, 1, 1, 1};
  const std::vector<int> sparse = {7, 7, 1000000, 1000000, 1000000};
  const std::vector<int> truth = {0, 1, 1, 1, 0};
  const Contingency ct(sparse, truth);
  EXPECT_EQ(ct.rows(), 2u);
  EXPECT_EQ(ct.total(), 5);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(sparse, truth),
                   adjusted_rand_index(dense, truth));
  EXPECT_DOUBLE_EQ(adjusted_mutual_information(sparse, truth),
                   adjusted_mutual_information(dense, truth));
  EXPECT_DOUBLE_EQ(accuracy(sparse, truth), accuracy(dense, truth));
}

TEST(Contingency, PairCounts) {
  const std::vector<int> a = {0, 0, 1, 1, 1};
  const std::vector<int> b = {0, 1, 1, 1, 0};
  const Contingency ct(a, b);
  EXPECT_EQ(ct.pairs_in_cells(), choose2(2));          // only the 2-cell
  EXPECT_EQ(ct.pairs_in_rows(), choose2(2) + choose2(3));
  EXPECT_EQ(ct.pairs_in_cols(), choose2(2) + choose2(3));
}

TEST(Contingency, Validation) {
  EXPECT_THROW(Contingency({}, {}), std::invalid_argument);
  EXPECT_THROW(Contingency({0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(Contingency({0, -1}, {0, 0}), std::invalid_argument);
}

// --- ACC ----------------------------------------------------------------------

TEST(Accuracy, PerfectAndPermuted) {
  const std::vector<int> truth = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(accuracy(truth, truth), 1.0);
  // Relabelled clustering is still perfect.
  const std::vector<int> permuted = {2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy(permuted, truth), 1.0);
}

TEST(Accuracy, HandComputed) {
  // clusters: {0,0,0,1}, truth: {0,1,0,1} -> best matching maps cluster0->0
  // (2 hits) and cluster1->1 (1 hit): ACC = 3/4.
  const std::vector<int> pred = {0, 0, 0, 1};
  const std::vector<int> truth = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
}

TEST(Accuracy, MoreClustersThanClasses) {
  // Each extra cluster can match at most one class; split clusters lose.
  const std::vector<int> pred = {0, 1, 2, 3};
  const std::vector<int> truth = {0, 0, 1, 1};
  // Best: two of the four singleton clusters map to the two classes -> 2/4.
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.5);
}

TEST(Accuracy, FewerClustersThanClasses) {
  const std::vector<int> pred = {0, 0, 0, 0};
  const std::vector<int> truth = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.25);
}

// --- ARI ---------------------------------------------------------------------

TEST(Ari, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
}

TEST(Ari, KnownSklearnValue) {
  // sklearn.metrics.adjusted_rand_score([0,0,1,1],[0,0,1,2]) = 0.5714285...
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.5714285714285714, 1e-12);
}

TEST(Ari, SymmetricAndLabelPermutationInvariant) {
  const std::vector<int> a = {0, 0, 1, 2, 2, 1, 0};
  const std::vector<int> b = {1, 1, 0, 0, 2, 2, 1};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), adjusted_rand_index(b, a));
  std::vector<int> a_relabel = a;
  for (int& x : a_relabel) x = (x + 1) % 3;
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a_relabel, b),
                   adjusted_rand_index(a, b));
}

TEST(Ari, TrivialPartitionsAreOne) {
  // Both partitions put everything in one cluster: identical -> 1.
  const std::vector<int> ones = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(ones, ones), 1.0);
}

TEST(Ari, CanBeNegative) {
  // Anti-correlated structure scores below chance.
  const std::vector<int> a = {0, 1, 0, 1};
  const std::vector<int> b = {0, 0, 1, 1};
  EXPECT_LT(adjusted_rand_index(a, b), 0.0 + 1e-12);
}

// --- MI / entropy / AMI --------------------------------------------------------

TEST(Entropy, UniformTwoClusters) {
  const std::vector<int> a = {0, 0, 1, 1};
  EXPECT_NEAR(entropy(a), std::log(2.0), 1e-12);
}

TEST(MutualInformation, IndependentIsZero) {
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(mutual_information(a, b), 0.0, 1e-12);
}

TEST(MutualInformation, IdenticalEqualsEntropy) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2, 2};
  EXPECT_NEAR(mutual_information(a, a), entropy(a), 1e-12);
}

TEST(Ami, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(adjusted_mutual_information(a, a), 1.0, 1e-12);
}

TEST(Ami, KnownHandDerivedValue) {
  // For a=[0,0,1,1], b=[0,0,1,2]: MI = ln2, EMI = (8/12) ln2,
  // mean(Ha, Hb) = (15/12) ln2, so AMI = (4/12)/(7/12) = 4/7.
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(adjusted_mutual_information(a, b), 4.0 / 7.0, 1e-12);
}

TEST(Ami, IndependentNearZero) {
  // Balanced independent partitions over many objects.
  std::vector<int> a;
  std::vector<int> b;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<int>(rng.below(3)));
    b.push_back(static_cast<int>(rng.below(3)));
  }
  EXPECT_NEAR(adjusted_mutual_information(a, b), 0.0, 0.02);
}

TEST(Ami, BothTrivialIsOne) {
  const std::vector<int> ones = {0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_mutual_information(ones, ones), 1.0);
}

TEST(Nmi, MatchesKnownValue) {
  // For a=[0,0,1,1], b=[0,0,1,2]: MI = ln2, Ha = ln2, Hb = 1.5 ln2,
  // so NMI (arithmetic) = ln2 / (1.25 ln2) = 0.8.
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(normalized_mutual_information(a, b), 0.8, 1e-12);
}

// --- Fowlkes-Mallows -----------------------------------------------------------

TEST(FowlkesMallows, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(fowlkes_mallows(a, a), 1.0);
}

TEST(FowlkesMallows, KnownSklearnValue) {
  // sklearn.metrics.fowlkes_mallows_score([0,0,1,1],[0,0,1,2]) = 0.7071067...
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(fowlkes_mallows(a, b), 0.7071067811865476, 1e-12);
}

TEST(FowlkesMallows, AllSingletonsIsZero) {
  const std::vector<int> a = {0, 1, 2, 3};
  const std::vector<int> b = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(fowlkes_mallows(a, b), 0.0);
}

// --- score_all -----------------------------------------------------------------

TEST(ScoreAll, BundlesTheFourIndices) {
  const std::vector<int> pred = {0, 0, 1, 1};
  const std::vector<int> truth = {0, 0, 1, 2};
  const Scores s = score_all(pred, truth);
  EXPECT_DOUBLE_EQ(s.acc, accuracy(pred, truth));
  EXPECT_DOUBLE_EQ(s.ari, adjusted_rand_index(pred, truth));
  EXPECT_DOUBLE_EQ(s.ami, adjusted_mutual_information(pred, truth));
  EXPECT_DOUBLE_EQ(s.fm, fowlkes_mallows(pred, truth));
}

// --- Bitwise references for the one-table score path -------------------------
//
// score_all builds one contingency table for all four indices, and the EMI
// reads lgamma/log from tables built once per call. The references below
// are the evaluation they replaced, kept test-local: nine lgamma calls per
// EMI term, and one table per index (AMI's MI on a second table). Every
// result must be memcpy-equal, not merely close.

double ref_entropy(const std::vector<std::int64_t>& sums, std::int64_t total) {
  double h = 0.0;
  for (std::int64_t s : sums) {
    if (s <= 0) continue;
    const double p = static_cast<double>(s) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

double ref_emi(const Contingency& ct) {
  const auto n = static_cast<double>(ct.total());
  const auto log_n = std::log(n);
  auto lf = [](double x) { return std::lgamma(x + 1.0); };
  double emi = 0.0;
  for (std::int64_t ai : ct.row_sums()) {
    if (ai == 0) continue;
    for (std::int64_t bj : ct.col_sums()) {
      if (bj == 0) continue;
      const std::int64_t lo = std::max<std::int64_t>(1, ai + bj - ct.total());
      const std::int64_t hi = std::min(ai, bj);
      for (std::int64_t nij = lo; nij <= hi; ++nij) {
        const auto x = static_cast<double>(nij);
        const auto a = static_cast<double>(ai);
        const auto b = static_cast<double>(bj);
        const double term1 =
            x / n * (std::log(x) + log_n - std::log(a) - std::log(b));
        const double log_prob = lf(a) + lf(b) + lf(n - a) + lf(n - b) -
                                lf(n) - lf(x) - lf(a - x) - lf(b - x) -
                                lf(n - a - b + x);
        emi += term1 * std::exp(log_prob);
      }
    }
  }
  return emi;
}

double ref_mi(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  const auto n = static_cast<double>(ct.total());
  double mi = 0.0;
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      const auto nij = static_cast<double>(ct.at(i, j));
      if (nij == 0.0) continue;
      const auto ai = static_cast<double>(ct.row_sums()[i]);
      const auto bj = static_cast<double>(ct.col_sums()[j]);
      mi += nij / n * std::log(n * nij / (ai * bj));
    }
  }
  return std::max(0.0, mi);
}

double ref_ami(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  const double ha = ref_entropy(ct.row_sums(), ct.total());
  const double hb = ref_entropy(ct.col_sums(), ct.total());
  if (ha == 0.0 && hb == 0.0) return 1.0;
  const double mi = ref_mi(a, b);
  const double emi = ref_emi(ct);
  const double denom = 0.5 * (ha + hb) - emi;
  if (std::abs(denom) < 1e-15) return 0.0;
  return (mi - emi) / denom;
}

double ref_accuracy(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  std::vector<std::vector<double>> cost(ct.rows(),
                                        std::vector<double>(ct.cols()));
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      cost[i][j] = -static_cast<double>(ct.at(i, j));
    }
  }
  return -solve_assignment(cost).cost / static_cast<double>(ct.total());
}

double ref_ari(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  const auto total_pairs = static_cast<double>(choose2(ct.total()));
  if (total_pairs == 0.0) return 1.0;
  const auto index = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  const double expected = row_pairs * col_pairs / total_pairs;
  const double max_index = 0.5 * (row_pairs + col_pairs);
  if (max_index == expected) return 1.0;
  return (index - expected) / (max_index - expected);
}

double ref_fm(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  const auto tp = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  if (row_pairs == 0.0 || col_pairs == 0.0) return 0.0;
  return tp / std::sqrt(row_pairs * col_pairs);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_matches_references(const std::vector<int>& pred,
                               const std::vector<int>& truth) {
  const double ami = ref_ami(pred, truth);
  EXPECT_TRUE(same_bits(adjusted_mutual_information(pred, truth), ami))
      << adjusted_mutual_information(pred, truth) << " vs " << ami;
  const Scores s = score_all(pred, truth);
  EXPECT_TRUE(same_bits(s.acc, ref_accuracy(pred, truth)));
  EXPECT_TRUE(same_bits(s.ari, ref_ari(pred, truth)));
  EXPECT_TRUE(same_bits(s.ami, ami));
  EXPECT_TRUE(same_bits(s.fm, ref_fm(pred, truth)));
}

std::vector<int> random_labels(Rng& rng, std::size_t n, int k) {
  std::vector<int> labels(n);
  for (int& l : labels) {
    l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return labels;
}

TEST(ScoreAllReference, RandomPartitions) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = 20 + rng.below(600);
    const int ka = 1 + static_cast<int>(rng.below(12));
    const int kb = 1 + static_cast<int>(rng.below(8));
    expect_matches_references(random_labels(rng, n, ka),
                              random_labels(rng, n, kb));
  }
}

TEST(ScoreAllReference, SparseLabelIds) {
  Rng rng(5);
  std::vector<int> a = random_labels(rng, 300, 4);
  std::vector<int> b = random_labels(rng, 300, 3);
  const int sparse_a[] = {7, 1000000, 42, 90000};
  const int sparse_b[] = {3, 65536, 999};
  for (int& l : a) l = sparse_a[l];
  for (int& l : b) l = sparse_b[l];
  expect_matches_references(a, b);
}

TEST(ScoreAllReference, Singletons) {
  Rng rng(6);
  std::vector<int> singletons(150);
  for (std::size_t i = 0; i < singletons.size(); ++i) {
    singletons[i] = static_cast<int>(i);
  }
  const std::vector<int> other = random_labels(rng, 150, 5);
  expect_matches_references(singletons, other);
  expect_matches_references(other, singletons);
  expect_matches_references(singletons, singletons);
}

TEST(ScoreAllReference, TrivialAndTinyPartitions) {
  expect_matches_references(std::vector<int>(40, 0), std::vector<int>(40, 0));
  expect_matches_references({0}, {0});
  expect_matches_references({0, 0}, {0, 1});
  expect_matches_references({0, 1}, {1, 0});
  expect_matches_references({0, 1}, {0, 0});
}

TEST(ScoreAllReference, NestedDataset) {
  data::NestedConfig config;
  config.num_objects = 20000;
  config.seed = 17;
  const data::NestedDataset nested = data::nested(config);
  // The fine partition, a tenth of it relabelled, against the coarse truth.
  std::vector<int> pred = nested.fine_labels;
  Rng rng(8);
  for (int& l : pred) {
    if (rng.bernoulli(0.1)) l = static_cast<int>(rng.below(6));
  }
  expect_matches_references(pred, nested.dataset.labels());
}

// --- Property sweeps ------------------------------------------------------------

class MetricProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const std::size_t n = 60 + rng.below(60);
    const int ka = 2 + static_cast<int>(rng.below(4));
    const int kb = 2 + static_cast<int>(rng.below(4));
    for (std::size_t i = 0; i < n; ++i) {
      a_.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(ka))));
      b_.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(kb))));
    }
    // Guarantee density of label ids (gtest param datasets may miss one).
    a_[0] = 0;
    b_[0] = 0;
  }
  std::vector<int> a_;
  std::vector<int> b_;
};

TEST_P(MetricProperties, Bounds) {
  EXPECT_GE(accuracy(a_, b_), 0.0);
  EXPECT_LE(accuracy(a_, b_), 1.0);
  EXPECT_GE(adjusted_rand_index(a_, b_), -1.0);
  EXPECT_LE(adjusted_rand_index(a_, b_), 1.0);
  EXPECT_LE(adjusted_mutual_information(a_, b_), 1.0 + 1e-9);
  EXPECT_GE(fowlkes_mallows(a_, b_), 0.0);
  EXPECT_LE(fowlkes_mallows(a_, b_), 1.0);
  EXPECT_GE(normalized_mutual_information(a_, b_), 0.0);
  EXPECT_LE(normalized_mutual_information(a_, b_), 1.0 + 1e-9);
}

TEST_P(MetricProperties, Symmetry) {
  EXPECT_NEAR(adjusted_rand_index(a_, b_), adjusted_rand_index(b_, a_), 1e-12);
  EXPECT_NEAR(adjusted_mutual_information(a_, b_),
              adjusted_mutual_information(b_, a_), 1e-9);
  EXPECT_NEAR(fowlkes_mallows(a_, b_), fowlkes_mallows(b_, a_), 1e-12);
}

TEST_P(MetricProperties, SelfComparisonIsPerfect) {
  EXPECT_DOUBLE_EQ(accuracy(a_, a_), 1.0);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a_, a_), 1.0);
  EXPECT_NEAR(adjusted_mutual_information(a_, a_), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(fowlkes_mallows(a_, a_), 1.0);
}

TEST_P(MetricProperties, LabelPermutationInvariance) {
  // Swap ids 0 <-> 1 in the prediction; every index must be unchanged.
  std::vector<int> swapped = a_;
  for (int& x : swapped) {
    if (x == 0) {
      x = 1;
    } else if (x == 1) {
      x = 0;
    }
  }
  EXPECT_NEAR(accuracy(swapped, b_), accuracy(a_, b_), 1e-12);
  EXPECT_NEAR(adjusted_rand_index(swapped, b_), adjusted_rand_index(a_, b_),
              1e-12);
  EXPECT_NEAR(adjusted_mutual_information(swapped, b_),
              adjusted_mutual_information(a_, b_), 1e-9);
  EXPECT_NEAR(fowlkes_mallows(swapped, b_), fowlkes_mallows(a_, b_), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mcdc::metrics
