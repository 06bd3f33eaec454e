#include "core/competitive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::core {

double cluster_weight_sigmoid(double delta) {
  return 1.0 / (1.0 + std::exp(-10.0 * delta + 5.0));
}

CompetitiveStage::CompetitiveStage(const data::DatasetView& ds,
                                   const std::vector<std::size_t>& seeds,
                                   const StageConfig& config)
    : ds_(ds), config_(config), global_(ds) {
  if (seeds.empty()) {
    throw std::invalid_argument("CompetitiveStage: need at least one seed");
  }
  if (ds.num_objects() == 0) {
    throw std::invalid_argument("CompetitiveStage: empty dataset");
  }
  const std::size_t k = seeds.size();
  set_ = ProfileSet(ds.cardinalities(), static_cast<int>(k));
  assignment_.assign(ds.num_objects(), -1);
  for (std::size_t l = 0; l < k; ++l) {
    const std::size_t i = seeds[l];
    if (i >= ds.num_objects()) {
      throw std::invalid_argument("CompetitiveStage: seed out of range");
    }
    if (assignment_[i] != -1) {
      throw std::invalid_argument("CompetitiveStage: duplicate seed row");
    }
    set_.add(static_cast<int>(l), ds, i);
    assignment_[i] = static_cast<int>(l);
  }
  omega_.assign(k, std::vector<double>(ds.num_features(),
                                       1.0 / static_cast<double>(ds.num_features())));
  g_prev_.assign(k, 0.0);
  g_cur_.assign(k, 0.0);
  delta_.assign(k, config.initial_delta);
  u_.assign(k, config.update == WeightUpdate::sigmoid_rival
                   ? cluster_weight_sigmoid(config.initial_delta)
                   : 1.0);
  rebuild_weight_bank();
}

int CompetitiveStage::run() {
  const std::size_t n = ds_.num_objects();
  const std::size_t d = ds_.num_features();
  const simd::Kernels& kr = simd::kernels();
  int passes = 0;
  const auto k_start = static_cast<std::size_t>(set_.num_clusters());
  // Elimination quota that ends the stage (0 = no quota).
  std::size_t quota = 0;
  if (config_.stage_drop_fraction > 0.0) {
    quota = static_cast<std::size_t>(
        std::ceil(config_.stage_drop_fraction * static_cast<double>(k_start)));
    quota = std::max<std::size_t>(quota, 1);
  }
  cells_.resize(d);

  while (passes < config_.max_passes) {
    ++passes;
    bool changed = false;
    // Eq. (7)'s sum g_total, kept running from here on. Winning counts are
    // integral doubles, so every partial sum is exact: the running total
    // equals a per-row re-summation bit for bit.
    double g_total = 0.0;
    for (double g : g_prev_) g_total += g;

    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(set_.num_clusters());
      set_.row_cells(ds_, i, cells_.data());
      if (k == 1) {
        // A lone cluster trivially wins every object.
        changed = assign(i, 0) || changed;
        g_cur_[0] += 1.0;
        if (config_.cumulative_rho) {
          g_prev_[0] += 1.0;
          g_total += 1.0;
        }
        continue;
      }

      // One division-free sweep of the weighted-quotient bank scores x_i
      // against every cluster (Eq. 14 with the per-cluster weight
      // columns). The Eq. (7) penalty transform is elementwise, after
      // which winner (Eq. 6) and rival (Eq. 9) are two vectorised
      // lowest-id argmax scans — the second with the winner masked by a
      // sentinel below any transformed score (all are >= 0). This
      // reproduces the classic single-pass top-2 scan exactly, including
      // its lowest-id tie resolution, keeping runs reproducible.
      scores_.resize(k);
      kr.score_row_f64(scores_.data(), bank_.data(), cells_.data(), d, 1.0, k);
      for (std::size_t l = 0; l < k; ++l) {
        // Eq. (7); under cumulative_rho g_prev_ mirrors the
        // stage-cumulative counts, otherwise it holds the previous sweep's
        // frozen counts.
        const double rho = g_total > 0.0 ? g_prev_[l] / g_total : 0.0;
        scores_[l] = (1.0 - rho) * u_[l] * scores_[l];
      }
      const auto v = static_cast<std::size_t>(kr.argmax(scores_.data(), k));
      scores_[v] = -1.0;
      const auto h = static_cast<std::size_t>(kr.argmax(scores_.data(), k));

      changed = assign(i, static_cast<int>(v)) || changed;
      g_cur_[v] += 1.0;  // Eq. (10)
      if (config_.cumulative_rho) {
        g_prev_[v] += 1.0;
        g_total += 1.0;
      }

      if (config_.update == WeightUpdate::sigmoid_rival) {
        delta_[v] += config_.eta;  // Eq. (12)
        // Eq. (13): rival pushed away proportionally to closeness. The
        // similarity is read after the move (and its column refresh)
        // because the winner's (and a moved-from rival's) histogram just
        // changed.
        const std::size_t c = config_.penalty_uses_winner_similarity ? v : h;
        double penalty_sim = 0.0;
        for (std::size_t r = 0; r < d; ++r) {
          if (cells_[r] != simd::kNoCell) penalty_sim += bank_[cells_[r] + c];
        }
        delta_[h] -= config_.eta * penalty_sim;
        u_[v] = cluster_weight_sigmoid(delta_[v]);
        u_[h] = cluster_weight_sigmoid(delta_[h]);
      } else {
        u_[v] += config_.eta;  // Eq. (8), winner-only reward
      }
    }

    prune_empty_clusters();
    if (config_.feature_weighting) refresh_feature_weights();
    if (!config_.cumulative_rho) {
      g_prev_ = g_cur_;
      std::fill(g_cur_.begin(), g_cur_.end(), 0.0);
    }
    if (!changed) break;  // Q_new == Q_old (Alg. 1 lines 8-10)
    if (quota > 0 &&
        k_start - static_cast<std::size_t>(set_.num_clusters()) >= quota) {
      break;
    }
  }
  return passes;
}

bool CompetitiveStage::assign(std::size_t i, int to) {
  const int from = assignment_[i];
  if (from == to) return false;
  if (from >= 0) {
    set_.move(from, to, ds_, i);
  } else {
    set_.add(to, ds_, i);
  }
  assignment_[i] = to;
  set_.refresh_weighted_quotients(to, omega_[static_cast<std::size_t>(to)],
                                  cells_.data(), bank_);
  if (from >= 0) {
    set_.refresh_weighted_quotients(
        from, omega_[static_cast<std::size_t>(from)], cells_.data(), bank_);
  }
  return true;
}

void CompetitiveStage::reset_learning_state() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  g_prev_.assign(k, 0.0);
  g_cur_.assign(k, 0.0);
  delta_.assign(k, config_.initial_delta);
  u_.assign(k, config_.update == WeightUpdate::sigmoid_rival
                   ? cluster_weight_sigmoid(config_.initial_delta)
                   : 1.0);
}

std::vector<ClusterProfile> CompetitiveStage::profiles() const {
  std::vector<ClusterProfile> out;
  out.reserve(static_cast<std::size_t>(set_.num_clusters()));
  for (int l = 0; l < set_.num_clusters(); ++l) out.push_back(set_.profile(l));
  return out;
}

void CompetitiveStage::refresh_feature_weights() {
  for (int l = 0; l < set_.num_clusters(); ++l) {
    omega_[static_cast<std::size_t>(l)] = feature_weights(global_, set_, l);
  }
  rebuild_weight_bank();
}

void CompetitiveStage::rebuild_weight_bank() {
  set_.fill_weighted_quotients(omega_, bank_);
}

void CompetitiveStage::prune_empty_clusters() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  std::vector<char> dead(k, 0);
  bool any = false;
  for (std::size_t l = 0; l < k; ++l) {
    if (set_.empty(static_cast<int>(l))) {
      dead[l] = 1;
      any = true;
    }
  }
  if (!any) return;
  const std::vector<int> remap = set_.remove_clusters(dead);
  const auto live = static_cast<std::size_t>(set_.num_clusters());
  for (std::size_t l = 0; l < k; ++l) {
    if (remap[l] < 0) continue;
    const auto nl = static_cast<std::size_t>(remap[l]);
    if (nl != l) {
      omega_[nl] = std::move(omega_[l]);
      g_prev_[nl] = g_prev_[l];
      g_cur_[nl] = g_cur_[l];
      delta_[nl] = delta_[l];
      u_[nl] = u_[l];
    }
  }
  omega_.resize(live);
  g_prev_.resize(live);
  g_cur_.resize(live);
  delta_.resize(live);
  u_.resize(live);
  for (auto& a : assignment_) {
    if (a >= 0) a = remap[static_cast<std::size_t>(a)];
  }
  rebuild_weight_bank();
}

}  // namespace mcdc::core
