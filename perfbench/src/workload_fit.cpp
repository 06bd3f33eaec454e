// fit: the paper's own workload. Engine::fit("mcdc", k = 0) with default
// options on multi-granular nested clusters (n = 100000, d = 16, 4 coarse
// x 3 fine clusters, cardinality 12, purity 0.8), one calling thread.
// core learning does most of the work; serve is idle.
#include <cmath>

#include "api/engine.h"
#include "api/registry.h"
#include "common.h"
#include "common/timer.h"
#include "core/came.h"
#include "core/encoding.h"
#include "core/kestimate.h"
#include "core/mgcpl.h"
#include "data/synthetic.h"
#include "metrics/indices.h"
#include "metrics/internal.h"

namespace perfbench {

using namespace mcdc;

namespace {

constexpr std::size_t kRows = 100000;
constexpr std::size_t kDatasets = 6;

data::NestedConfig nested_config(std::uint64_t data_seed) {
  data::NestedConfig config;
  config.num_objects = kRows;
  config.num_features = 16;
  config.num_coarse = 4;
  config.fine_per_coarse = 3;
  config.cardinality = 12;
  config.purity = 0.8;
  config.seed = data_seed;
  return config;
}

api::FitOptions fit_options() {
  api::FitOptions options;
  options.method = "mcdc";
  options.k = 0;
  return options;
}

// Least-squares slope of log(t) against log(n).
double log_log_slope(const std::vector<double>& n,
                     const std::vector<double>& t) {
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n.size(); ++i) {
    mx += std::log(n[i]);
    my += std::log(t[i]);
  }
  mx /= static_cast<double>(n.size());
  my /= static_cast<double>(n.size());
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double dx = std::log(n[i]) - mx;
    sxy += dx * (std::log(t[i]) - my);
    sxx += dx * dx;
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

}  // namespace

void run_fit(const Options& options, Record& record) {
  // Set-up: generating the rows (the engine itself holds no state). The
  // fit's work depends on the data (MGCPL's pass count, the estimated k),
  // so a run fits kDatasets datasets drawn from its seed and averages them:
  // the seed-to-seed spread of one dataset would hide a real regression.
  std::vector<double> setups;
  std::vector<data::NestedDataset> datasets;
  for (int r = 0; r < 3; ++r) {
    datasets.clear();
    Timer timer;
    for (std::uint64_t i = 0; i < kDatasets; ++i) {
      datasets.push_back(
          data::nested(nested_config(derive_seed(options.seed, i))));
    }
    setups.push_back(timer.elapsed_seconds());
  }
  const api::Engine engine;
  const api::FitOptions fit = fit_options();

  // Rounds over the datasets until the budget is spent; every fit of one
  // dataset must return the same labels.
  Phase phase{"fit.engine_fit"};
  std::vector<std::vector<double>> seconds(kDatasets);
  std::vector<std::vector<int>> first_labels(kDatasets);
  Timer budget;
  do {
    for (std::size_t i = 0; i < kDatasets; ++i) {
      const data::Dataset& ds = datasets[i].dataset;
      Timer timer;
      const api::FitResult result = engine.fit(ds, fit);
      seconds[i].push_back(timer.elapsed_seconds());
      ++phase.attempted;
      bool ok = result.ok() && result.report.labels.size() == ds.num_objects();
      if (ok && first_labels[i].empty()) first_labels[i] = result.report.labels;
      else if (ok) ok = result.report.labels == first_labels[i];
      (ok ? phase.succeeded : phase.failed) += 1;
    }
  } while (budget.elapsed_seconds() < options.seconds * 0.8);
  record.phase(phase);

  // Each dataset's median fit; rows_ps is n over their mean.
  std::vector<double> per_dataset;
  double fit_s = 0.0;
  for (const auto& s : seconds) {
    per_dataset.push_back(median(s));
    fit_s += per_dataset.back() / static_cast<double>(kDatasets);
  }
  record.metric("setup_s", median(setups));
  record.metric("rows_ps", static_cast<double>(kRows) / fit_s);
  record.metric("op_p50_us", median(per_dataset) * 1e6);
  record.note(with_values("fit: " + std::to_string(phase.attempted) +
                              " Engine::fit calls over " +
                              std::to_string(kDatasets) +
                              " datasets; per-dataset median s:",
                          per_dataset));
}

void trace_fit(const Options& options, Record& record, Tracer& tracer) {
  const data::NestedDataset nested =
      data::nested(nested_config(derive_seed(options.seed, 0)));
  const data::Dataset& ds = nested.dataset;
  const api::Engine engine;
  const api::FitOptions fit = fit_options();

  // The untraced reference: one Engine::fit, timed whole.
  Timer fit_timer;
  const api::FitResult reference = engine.fit(ds, fit);
  const double fit_s = fit_timer.elapsed_seconds();

  // The replay: the same pipeline Engine::fit runs for mcdc with k = 0,
  // one span per layer call (MGCPL once, the staircase estimate reused,
  // CAME on the Gamma embedding with the pipeline's derived seed).
  const core::McdcConfig config = api::mcdc_config_from_params(fit.params);
  core::MgcplResult mgcpl;
  core::KEstimate estimate;
  data::Dataset embedding;
  core::CameResult came;
  api::Model model;
  metrics::InternalScores internal;
  {
    ScopedSpan root(&tracer, "api.Engine::fit.replay");
    const auto timed = [&](const char* name, auto&& call) {
      const std::int64_t start = now_ns();
      {
        ScopedSpan span(&tracer, name);
        call();
      }
      return static_cast<double>(now_ns() - start) / 1e9;
    };
    const double mgcpl_s = timed("core.Mgcpl::run", [&] {
      mgcpl = core::Mgcpl(config.mgcpl).run(ds, fit.seed);
    });
    const double kestimate_s =
        timed("core.estimate_k",
              [&] { estimate = core::estimate_k(ds, mgcpl); });
    const double encode_s =
        timed("core.encode_gamma",
              [&] { embedding = core::encode_gamma(mgcpl); });
    const int k = estimate.recommended_k;
    const double came_s = timed("core.Came::run", [&] {
      came = core::Came(config.came)
                 .run(embedding, k, fit.seed ^ 0x5bd1e995ULL);
    });
    const double from_fit_s = timed("api.Model::from_fit", [&] {
      model = api::Model::from_fit(fit.method, ds, came.labels, k, mgcpl.kappa,
                                   came.theta);
    });
    const double internal_s = timed("metrics.internal_scores", [&] {
      internal = metrics::internal_scores(ds, model.training_labels());
    });

    int passes = 0;
    for (const core::MgcplStageStats& stage : mgcpl.stages) {
      passes += stage.passes;
    }
    record.metric("api.engine.fit_s", fit_s);
    record.metric("api.engine.self_s",
                  fit_s - (mgcpl_s + kestimate_s + encode_s + came_s +
                           from_fit_s + internal_s));
    record.metric("core.mgcpl.run_s", mgcpl_s);
    record.metric("core.mgcpl.k0", mgcpl.k0);
    record.metric("core.mgcpl.stages",
                  static_cast<double>(mgcpl.stages.size()));
    record.metric("core.mgcpl.passes", passes);
    record.metric("core.kestimate_s", kestimate_s);
    record.metric("core.encode_gamma_s", encode_s);
    record.metric("core.came.run_s", came_s);
    record.metric("core.came.iterations", came.iterations);
    record.metric("api.model.from_fit_s", from_fit_s);
    record.metric("metrics.internal_scores_s", internal_s);

    // The paper's linear-time claim (Theorem 1), checked rather than
    // assumed: MGCPL at n/4, n/2 and n. k0 grows as sqrt(n), so the slope
    // is expected above 1. Recorded, not gated.
    std::vector<double> sizes;
    std::vector<double> times;
    for (const std::size_t n : {kRows / 4, kRows / 2}) {
      std::vector<std::size_t> rows(n);
      for (std::size_t i = 0; i < n; ++i) rows[i] = i;
      const data::DatasetView view(ds, rows);
      sizes.push_back(static_cast<double>(n));
      const char* name =
          n == kRows / 4 ? "core.Mgcpl::run[n/4]" : "core.Mgcpl::run[n/2]";
      times.push_back(
          timed(name, [&] { core::Mgcpl(config.mgcpl).run(view, fit.seed); }));
    }
    sizes.push_back(static_cast<double>(kRows));
    times.push_back(mgcpl_s);
    record.metric("core.mgcpl.n_exponent", log_log_slope(sizes, times));
  }

  Phase phase{"fit.replay_matches_engine"};
  phase.attempted = 1;
  const bool same = reference.ok() &&
                    model.training_labels() == reference.report.labels;
  (same ? phase.succeeded : phase.failed) = 1;
  record.phase(phase);
  record.metric("api.engine.fit_ari",
                metrics::adjusted_rand_index(reference.report.labels,
                                             ds.labels()));
  record.note("fit trace: k = " + std::to_string(estimate.recommended_k) +
              ", silhouette " + std::to_string(internal.silhouette));
}

}  // namespace perfbench
