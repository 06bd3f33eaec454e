// Tests for the competitive (penalization) learning stage engine, plus
// the bitwise reference: the stage's weighted-quotient bank must reproduce
// the per-row sweep that re-divides every live quotient, bit for bit.
#include "core/competitive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "core/simd.h"
#include "data/noise.h"
#include "data/synthetic.h"

namespace mcdc::core {
namespace {

TEST(SigmoidWeight, MatchesEq11) {
  // u = 1 / (1 + e^(-10*delta + 5))
  EXPECT_NEAR(cluster_weight_sigmoid(0.5), 0.5, 1e-12);
  EXPECT_NEAR(cluster_weight_sigmoid(1.0), 1.0 / (1.0 + std::exp(-5.0)), 1e-12);
  EXPECT_NEAR(cluster_weight_sigmoid(0.0), 1.0 / (1.0 + std::exp(5.0)), 1e-12);
  EXPECT_GT(cluster_weight_sigmoid(2.0), 0.999);
  EXPECT_LT(cluster_weight_sigmoid(-1.0), 0.001);
}

TEST(CompetitiveStage, SeedsBecomeSingletonClusters) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2}, {});
  EXPECT_EQ(stage.num_clusters(), 3);
  EXPECT_EQ(stage.assignment()[0], 0);
  EXPECT_EQ(stage.assignment()[1], 1);
  EXPECT_EQ(stage.assignment()[2], 2);
  EXPECT_EQ(stage.assignment()[3], -1);
  for (const auto& p : stage.profiles()) EXPECT_EQ(p.size(), 1);
}

TEST(CompetitiveStage, Validation) {
  const auto ds = data::well_separated({});
  EXPECT_THROW(CompetitiveStage(ds, {}, {}), std::invalid_argument);
  EXPECT_THROW(CompetitiveStage(ds, {0, 0}, {}), std::invalid_argument);
  EXPECT_THROW(CompetitiveStage(ds, {ds.num_objects()}, {}),
               std::invalid_argument);
}

TEST(CompetitiveStage, RunAssignsEveryObject) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5, 6, 7}, {});
  const int passes = stage.run();
  EXPECT_GE(passes, 1);
  for (int a : stage.assignment()) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, stage.num_clusters());
  }
}

TEST(CompetitiveStage, LabelsStayDenseAfterPruning) {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  const auto ds = data::well_separated(config);
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {});
  stage.run();
  const int k = stage.num_clusters();
  std::set<int> seen(stage.assignment().begin(), stage.assignment().end());
  EXPECT_EQ(static_cast<int>(seen.size()), k);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), k - 1);
  // Profile sizes agree with assignment counts.
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  for (int a : stage.assignment()) ++counts[static_cast<std::size_t>(a)];
  for (int l = 0; l < k; ++l) {
    EXPECT_EQ(stage.profiles()[static_cast<std::size_t>(l)].size(), counts[static_cast<std::size_t>(l)]);
  }
}

TEST(CompetitiveStage, RedundantSeedsGetEliminated) {
  // 3 well-separated clusters, 12 seeds: competition must prune most of the
  // redundancy.
  data::WellSeparatedConfig config;
  config.num_objects = 600;
  config.purity = 0.95;
  const auto ds = data::well_separated(config);
  std::vector<std::size_t> seeds;
  for (std::size_t i = 0; i < 12; ++i) seeds.push_back(i);
  StageConfig sc;
  sc.max_passes = 50;
  CompetitiveStage stage(ds, seeds, sc);
  stage.run();
  EXPECT_LT(stage.num_clusters(), 12);
  EXPECT_GE(stage.num_clusters(), 3);
}

TEST(CompetitiveStage, SingleClusterAbsorbsEverything) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {5}, {});
  stage.run();
  EXPECT_EQ(stage.num_clusters(), 1);
  for (int a : stage.assignment()) EXPECT_EQ(a, 0);
}

TEST(CompetitiveStage, OmegaRowsAreDistributions) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4}, {});
  stage.run();
  for (const auto& row : stage.omega()) {
    double sum = 0.0;
    for (double w : row) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(CompetitiveStage, ClusterWeightsStayInUnitInterval) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5}, {});
  stage.run();
  for (double u : stage.cluster_weights()) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(CompetitiveStage, ResetLearningStateKeepsMembership) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.initial_delta = 0.5;
  CompetitiveStage stage(ds, {0, 1, 2, 3}, sc);
  stage.run();
  const auto before = stage.assignment();
  const int k = stage.num_clusters();
  stage.reset_learning_state();
  EXPECT_EQ(stage.assignment(), before);
  EXPECT_EQ(stage.num_clusters(), k);
  for (double u : stage.cluster_weights()) {
    EXPECT_NEAR(u, cluster_weight_sigmoid(0.5), 1e-12);
  }
}

TEST(CompetitiveStage, AdditiveModeRunsAndGrowsWinnerWeights) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.update = WeightUpdate::additive_winner;
  sc.feature_weighting = false;
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4}, sc);
  stage.run();
  // At least one winner accumulated weight above the initial 1.0.
  bool grew = false;
  for (double u : stage.cluster_weights()) {
    if (u > 1.0) grew = true;
  }
  EXPECT_TRUE(grew);
}

TEST(CompetitiveStage, DeterministicGivenSameSeeds) {
  const auto ds = data::well_separated({});
  CompetitiveStage a(ds, {0, 10, 20, 30}, {});
  CompetitiveStage b(ds, {0, 10, 20, 30}, {});
  a.run();
  b.run();
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_EQ(a.num_clusters(), b.num_clusters());
}

TEST(CompetitiveStage, MaxPassesBoundsWork) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.max_passes = 1;
  CompetitiveStage stage(ds, {0, 1, 2, 3}, sc);
  EXPECT_EQ(stage.run(), 1);
}

// The per-row competitive stage as it stood before the weighted-quotient
// bank, kept as the bitwise reference: every row re-divides the live
// count/non_null quotient of every (present feature, cluster), g_total is
// re-summed per row, and the Eq. (13) penalty goes through
// value_similarity. Plain scalar loops — the dispatched kernels only ever
// had to match these.
class ReferenceStage {
 public:
  ReferenceStage(const data::DatasetView& ds,
                 const std::vector<std::size_t>& seeds,
                 const StageConfig& config)
      : ds_(ds),
        config_(config),
        global_(ds),
        set_(ds.cardinalities(), static_cast<int>(seeds.size())),
        assignment_(ds.num_objects(), -1) {
    for (std::size_t l = 0; l < seeds.size(); ++l) {
      set_.add(static_cast<int>(l), ds, seeds[l]);
      assignment_[seeds[l]] = static_cast<int>(l);
    }
    omega_.assign(seeds.size(),
                  std::vector<double>(ds.num_features(),
                                      1.0 / static_cast<double>(
                                                ds.num_features())));
    reset_learning_state();
  }

  void reset_learning_state() {
    const auto k = static_cast<std::size_t>(set_.num_clusters());
    g_prev_.assign(k, 0.0);
    g_cur_.assign(k, 0.0);
    delta_.assign(k, config_.initial_delta);
    u_.assign(k, config_.update == WeightUpdate::sigmoid_rival
                     ? cluster_weight_sigmoid(config_.initial_delta)
                     : 1.0);
  }

  int run() {
    const std::size_t n = ds_.num_objects();
    const std::size_t d = ds_.num_features();
    const auto k_start = static_cast<std::size_t>(set_.num_clusters());
    std::size_t quota = 0;
    if (config_.stage_drop_fraction > 0.0) {
      quota = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 config_.stage_drop_fraction * static_cast<double>(k_start))));
    }
    int passes = 0;
    while (passes < config_.max_passes) {
      ++passes;
      bool changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(set_.num_clusters());
        const auto assign = [&](std::size_t v) {
          const int old = assignment_[i];
          if (old == static_cast<int>(v)) return;
          if (old >= 0) {
            set_.move(old, static_cast<int>(v), ds_, i);
          } else {
            set_.add(static_cast<int>(v), ds_, i);
          }
          assignment_[i] = static_cast<int>(v);
          changed = true;
        };
        if (k == 1) {
          assign(0);
          g_cur_[0] += 1.0;
          if (config_.cumulative_rho) g_prev_[0] += 1.0;
          continue;
        }
        double g_total = 0.0;
        for (const double g : g_prev_) g_total += g;
        std::vector<double> scores(k, 0.0);
        for (std::size_t r = 0; r < d; ++r) {
          const data::Value x = ds_.at(i, r);
          if (x < 0 || x >= ds_.cardinality(r)) continue;
          for (std::size_t l = 0; l < k; ++l) {
            const auto cl = static_cast<int>(l);
            const double nn = set_.non_null(cl, r);
            const double c = set_.count(cl, r, x);
            scores[l] += nn > 0.0 ? omega_[l][r] * (c / nn) : 0.0;
          }
        }
        for (std::size_t l = 0; l < k; ++l) {
          const double rho = g_total > 0.0 ? g_prev_[l] / g_total : 0.0;
          scores[l] = (1.0 - rho) * u_[l] * scores[l];
        }
        const std::size_t v = first_max(scores);
        scores[v] = -1.0;
        const std::size_t h = first_max(scores);
        assign(v);
        g_cur_[v] += 1.0;
        if (config_.cumulative_rho) g_prev_[v] += 1.0;
        if (config_.update == WeightUpdate::sigmoid_rival) {
          delta_[v] += config_.eta;
          const std::size_t c =
              config_.penalty_uses_winner_similarity ? v : h;
          double penalty_sim = 0.0;
          for (std::size_t r = 0; r < d; ++r) {
            penalty_sim += omega_[c][r] * set_.value_similarity(
                                              static_cast<int>(c), r,
                                              ds_.at(i, r));
          }
          delta_[h] -= config_.eta * penalty_sim;
          u_[v] = cluster_weight_sigmoid(delta_[v]);
          u_[h] = cluster_weight_sigmoid(delta_[h]);
        } else {
          u_[v] += config_.eta;
        }
      }
      prune_empty_clusters();
      if (config_.feature_weighting) {
        for (int l = 0; l < set_.num_clusters(); ++l) {
          omega_[static_cast<std::size_t>(l)] =
              feature_weights(global_, set_, l);
        }
      }
      if (!config_.cumulative_rho) {
        g_prev_ = g_cur_;
        std::fill(g_cur_.begin(), g_cur_.end(), 0.0);
      }
      if (!changed) break;
      if (quota > 0 &&
          k_start - static_cast<std::size_t>(set_.num_clusters()) >= quota) {
        break;
      }
    }
    return passes;
  }

  const std::vector<int>& assignment() const { return assignment_; }
  const std::vector<std::vector<double>>& omega() const { return omega_; }
  const std::vector<double>& cluster_weights() const { return u_; }

 private:
  // The scoring argmax: first index of the strict maximum.
  static std::size_t first_max(const std::vector<double>& s) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t l = 0; l < s.size(); ++l) {
      if (s[l] > best_score) {
        best_score = s[l];
        best = l;
      }
    }
    return best;
  }

  void prune_empty_clusters() {
    const auto k = static_cast<std::size_t>(set_.num_clusters());
    std::vector<char> dead(k, 0);
    bool any = false;
    for (std::size_t l = 0; l < k; ++l) {
      dead[l] = set_.empty(static_cast<int>(l)) ? 1 : 0;
      any = any || dead[l] != 0;
    }
    if (!any) return;
    const std::vector<int> remap = set_.remove_clusters(dead);
    const auto compact = [&](auto& values) {
      for (std::size_t l = 0; l < k; ++l) {
        if (remap[l] >= 0) {
          values[static_cast<std::size_t>(remap[l])] = values[l];
        }
      }
      values.resize(static_cast<std::size_t>(set_.num_clusters()));
    };
    compact(omega_);
    compact(g_prev_);
    compact(g_cur_);
    compact(delta_);
    compact(u_);
    for (int& a : assignment_) {
      if (a >= 0) a = remap[static_cast<std::size_t>(a)];
    }
  }

  data::DatasetView ds_;
  StageConfig config_;
  GlobalCounts global_;
  ProfileSet set_;
  std::vector<int> assignment_;
  std::vector<std::vector<double>> omega_;
  std::vector<double> g_prev_;
  std::vector<double> g_cur_;
  std::vector<double> delta_;
  std::vector<double> u_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Runs the bank-backed stage and the reference through several inherited
// stages (reset between them, as MGCPL does) for every combination of the
// three boolean options under `update`, at both SIMD dispatch levels, on
// data with 8% NULL cells, asserting bit equality after every stage.
void expect_matches_reference(WeightUpdate update) {
  data::WellSeparatedConfig data_config;
  data_config.num_objects = 300;
  data_config.num_features = 8;
  data_config.num_clusters = 3;
  data_config.cardinality = 5;
  data_config.purity = 0.72;
  data_config.seed = 13;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(data_config), 0.08, 99);
  Rng rng(41);
  const std::vector<std::size_t> seeds =
      rng.sample_without_replacement(ds.num_objects(), 24);

  const simd::Level entry = simd::level();
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    simd::set_level(level);
    for (int mask = 0; mask < 8; ++mask) {
      StageConfig config;
      config.update = update;
      config.feature_weighting = (mask & 1) != 0;
      config.cumulative_rho = (mask & 2) != 0;
      config.penalty_uses_winner_similarity = (mask & 4) != 0;
      config.max_passes = 6;
      config.stage_drop_fraction = 0.3;
      SCOPED_TRACE(::testing::Message()
                   << simd::level_name(simd::level()) << " weighting="
                   << config.feature_weighting
                   << " cumulative_rho=" << config.cumulative_rho
                   << " winner_penalty="
                   << config.penalty_uses_winner_similarity);
      CompetitiveStage stage(ds, seeds, config);
      ReferenceStage reference(ds, seeds, config);
      for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE(::testing::Message() << "stage " << round);
        ASSERT_EQ(stage.run(), reference.run());
        ASSERT_EQ(stage.assignment(), reference.assignment());
        ASSERT_TRUE(same_bits(stage.cluster_weights(),
                              reference.cluster_weights()));
        ASSERT_EQ(stage.omega().size(), reference.omega().size());
        for (std::size_t l = 0; l < stage.omega().size(); ++l) {
          ASSERT_TRUE(same_bits(stage.omega()[l], reference.omega()[l]))
              << "omega of cluster " << l;
        }
        stage.reset_learning_state();
        reference.reset_learning_state();
      }
    }
  }
  simd::set_level(entry);
}

TEST(CompetitiveBitwiseReference, SigmoidRivalMatchesPerRowStage) {
  expect_matches_reference(WeightUpdate::sigmoid_rival);
}

TEST(CompetitiveBitwiseReference, AdditiveWinnerMatchesPerRowStage) {
  expect_matches_reference(WeightUpdate::additive_winner);
}

}  // namespace
}  // namespace mcdc::core
