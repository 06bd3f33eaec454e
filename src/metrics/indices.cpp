#include "metrics/indices.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "metrics/contingency.h"
#include "metrics/hungarian.h"

namespace mcdc::metrics {

namespace {

double entropy_from_sums(const std::vector<std::int64_t>& sums,
                         std::int64_t total) {
  double h = 0.0;
  for (std::int64_t s : sums) {
    if (s <= 0) continue;
    const double p = static_cast<double>(s) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

// Exact expected mutual information under the permutation (hypergeometric)
// model: O(rows * cols * n) terms in the worst case, each an exp(). Nine
// lgamma calls per term would cost ~60 ms per fit at n = 100k, so log(x)
// and lgamma(x + 1) = log(x!) are tabulated once for x in [0, n] (the same
// libm calls on the same arguments, so each entry is the value a per-term
// call returns) and the pair-constant prefix of log_prob is hoisted; the
// rest of the sum keeps its left-to-right order, so the EMI is
// bit-identical to evaluating every term from scratch.
double expected_mutual_information(const Contingency& ct) {
  const std::int64_t total = ct.total();
  const auto n = static_cast<double>(total);
  const auto size = static_cast<std::size_t>(total) + 1;
  std::vector<double> lf(size);
  std::vector<double> log_of(size);
  for (std::size_t x = 0; x < size; ++x) {
    lf[x] = std::lgamma(static_cast<double>(x) + 1.0);
    log_of[x] = std::log(static_cast<double>(x));
  }
  const auto f = [&](std::int64_t x) { return lf[static_cast<std::size_t>(x)]; };
  const double log_n = log_of[static_cast<std::size_t>(total)];

  double emi = 0.0;
  for (std::int64_t ai : ct.row_sums()) {
    if (ai == 0) continue;
    const double log_ai = log_of[static_cast<std::size_t>(ai)];
    for (std::int64_t bj : ct.col_sums()) {
      if (bj == 0) continue;
      const double log_bj = log_of[static_cast<std::size_t>(bj)];
      const double prefix =
          f(ai) + f(bj) + f(total - ai) + f(total - bj) - f(total);
      const std::int64_t lo = std::max<std::int64_t>(1, ai + bj - total);
      const std::int64_t hi = std::min(ai, bj);
      for (std::int64_t nij = lo; nij <= hi; ++nij) {
        const auto x = static_cast<double>(nij);
        const double term1 =
            x / n *
            (log_of[static_cast<std::size_t>(nij)] + log_n - log_ai - log_bj);
        const double log_prob = prefix - f(nij) - f(ai - nij) - f(bj - nij) -
                                f(total - ai - bj + nij);
        emi += term1 * std::exp(log_prob);
      }
    }
  }
  return emi;
}

// The per-table indices. Each public function below builds one Contingency
// and calls its helper; score_all builds the table once for all four.

double accuracy_of(const Contingency& ct) {
  // Maximise matches == minimise negated counts; pad implicitly handled by
  // the rectangular solver.
  std::vector<std::vector<double>> cost(ct.rows(),
                                        std::vector<double>(ct.cols()));
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      cost[i][j] = -static_cast<double>(ct.at(i, j));
    }
  }
  const AssignmentResult result = solve_assignment(cost);
  return -result.cost / static_cast<double>(ct.total());
}

double adjusted_rand_index_of(const Contingency& ct) {
  const auto total_pairs = static_cast<double>(choose2(ct.total()));
  if (total_pairs == 0.0) return 1.0;  // single object: trivially identical
  const auto index = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  const double expected = row_pairs * col_pairs / total_pairs;
  const double max_index = 0.5 * (row_pairs + col_pairs);
  if (max_index == expected) return 1.0;  // both partitions trivial
  return (index - expected) / (max_index - expected);
}

double mutual_information_of(const Contingency& ct) {
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

double adjusted_mutual_information_of(const Contingency& ct) {
  const double ha = entropy_from_sums(ct.row_sums(), ct.total());
  const double hb = entropy_from_sums(ct.col_sums(), ct.total());
  // Two single-cluster partitions are identical by convention.
  if (ha == 0.0 && hb == 0.0) return 1.0;
  const double mi = mutual_information_of(ct);
  const double emi = expected_mutual_information(ct);
  const double denom = 0.5 * (ha + hb) - emi;
  if (std::abs(denom) < 1e-15) return 0.0;
  return (mi - emi) / denom;
}

double fowlkes_mallows_of(const Contingency& ct) {
  const auto tp = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  if (row_pairs == 0.0 || col_pairs == 0.0) return 0.0;
  return tp / std::sqrt(row_pairs * col_pairs);
}

}  // namespace

double accuracy(const std::vector<int>& predicted,
                const std::vector<int>& truth) {
  return accuracy_of(Contingency(predicted, truth));
}

double adjusted_rand_index(const std::vector<int>& a,
                           const std::vector<int>& b) {
  return adjusted_rand_index_of(Contingency(a, b));
}

double mutual_information(const std::vector<int>& a,
                          const std::vector<int>& b) {
  return mutual_information_of(Contingency(a, b));
}

double entropy(const std::vector<int>& labels) {
  const Contingency ct(labels, labels);
  return entropy_from_sums(ct.row_sums(), ct.total());
}

double adjusted_mutual_information(const std::vector<int>& a,
                                   const std::vector<int>& b) {
  return adjusted_mutual_information_of(Contingency(a, b));
}

double normalized_mutual_information(const std::vector<int>& a,
                                     const std::vector<int>& b) {
  const Contingency ct(a, b);
  const double ha = entropy_from_sums(ct.row_sums(), ct.total());
  const double hb = entropy_from_sums(ct.col_sums(), ct.total());
  if (ha == 0.0 && hb == 0.0) return 1.0;
  const double denom = 0.5 * (ha + hb);
  if (denom == 0.0) return 0.0;
  return mutual_information_of(ct) / denom;
}

double fowlkes_mallows(const std::vector<int>& a, const std::vector<int>& b) {
  return fowlkes_mallows_of(Contingency(a, b));
}

Scores score_all(const std::vector<int>& predicted,
                 const std::vector<int>& truth) {
  const Contingency ct(predicted, truth);
  Scores s;
  s.acc = accuracy_of(ct);
  s.ari = adjusted_rand_index_of(ct);
  s.ami = adjusted_mutual_information_of(ct);
  s.fm = fowlkes_mallows_of(ct);
  return s;
}

}  // namespace mcdc::metrics
