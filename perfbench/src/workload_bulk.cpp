// bulk: batch labelling through ModelServer::predict(DatasetView). A
// k = 256, d = 32, cardinality-8 model (a 512 KB f64 bank) scores 200000
// rows per sweep, repeated. The frozen kernel does most of the work and
// the single-row queue is unused, so a kernel change shows here first.
#include <optional>

#include "common.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace mcdc;

namespace {

constexpr int kClusters = 256;

struct BulkState {
  data::Dataset ds;
  std::shared_ptr<const api::Model> model;
  std::unique_ptr<serve::ModelServer> server;
  std::vector<int> warm;  // the first (cold) sweep's labels
};

std::unique_ptr<BulkState> bulk_setup(std::uint64_t seed) {
  auto state = std::make_unique<BulkState>();
  data::WellSeparatedConfig config;
  config.num_objects = 200000;
  config.num_features = 32;
  config.num_clusters = 8;
  config.cardinality = 8;
  config.purity = 0.8;
  config.seed = derive_seed(seed, 2);
  state->ds = data::well_separated(config);
  state->model = random_model(state->ds, kClusters, derive_seed(seed, 3));
  state->server = std::make_unique<serve::ModelServer>(state->model);
  state->warm = state->server->predict(state->ds);
  return state;
}

void count_rows(Phase& phase, const std::vector<int>& got,
                const std::vector<int>& want) {
  phase.attempted += want.size();
  std::uint64_t wrong = got.size() == want.size() ? 0 : want.size();
  for (std::size_t i = 0; wrong == 0 && i < want.size(); ++i) {
    if (got[i] != want[i]) ++wrong;
  }
  phase.failed += wrong;
  phase.succeeded += want.size() - wrong;
}

}  // namespace

void run_bulk(const Options& options, Record& record) {
  // Set-up: generation, model build, server start and the cold first sweep.
  std::vector<double> setups;
  std::unique_ptr<BulkState> state;
  for (int r = 0; r < 5; ++r) {
    state.reset();
    Timer timer;
    state = bulk_setup(options.seed);
    setups.push_back(timer.elapsed_seconds());
  }
  const std::vector<int> reference = state->model->predict(state->ds);
  Phase phase{"bulk.server_predict_rows"};
  count_rows(phase, state->warm, reference);

  std::vector<double> sweeps;
  Timer budget;
  while (sweeps.size() < 5 || budget.elapsed_seconds() < options.seconds) {
    Timer timer;
    const std::vector<int> labels = state->server->predict(state->ds);
    sweeps.push_back(timer.elapsed_seconds());
    count_rows(phase, labels, reference);
  }
  record.phase(phase);
  const double n = static_cast<double>(state->ds.num_objects());
  record.metric("setup_s", median(setups));
  record.metric("rows_ps", n / median(sweeps));
  record.metric("op_p50_us", median(sweeps) * 1e6);
  record.note("bulk: " + std::to_string(sweeps.size()) +
              " sweeps of 200000 rows, p99 sweep " +
              std::to_string(nearest_rank(sweeps, 99.0)) + " s");
}

void trace_bulk(const Options& options, Record& record, Tracer& tracer,
                double seconds) {
  const std::unique_ptr<BulkState> state = bulk_setup(options.seed);
  const data::Dataset& ds = state->ds;
  const api::Model& model = *state->model;
  const core::ProfileSet& bank = model.profile_bank();
  bank.freeze();
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::vector<int> reference = model.predict(ds);
  std::vector<int> out(n);
  Phase phase{"bulk.trace_labels"};
  const double slice = seconds / 4.0;
  const double items = static_cast<double>(n);

  const double kernel = median_rate(items, slice, [&] {
    ScopedSpan span(&tracer, "core.ProfileSet::best_clusters");
    bank.best_clusters(rows.data(), n, out.data());
  });
  count_rows(phase, out, reference);
  const double predict_rows = median_rate(items, slice, [&] {
    ScopedSpan span(&tracer, "api.Model::predict_rows");
    model.predict_rows(rows.data(), n, out.data());
  });
  count_rows(phase, out, reference);
  const double predict_view = median_rate(items, slice, [&] {
    ScopedSpan span(&tracer, "api.Model::predict");
    out = model.predict(ds);
  });
  count_rows(phase, out, reference);
  const double server_view = median_rate(items, slice, [&] {
    ScopedSpan span(&tracer, "serve.ModelServer::predict");
    out = state->server->predict(ds);
  });
  count_rows(phase, out, reference);
  record.phase(phase);

  double cells = 0.0;  // histogram cells: sum of cardinalities
  for (const int m : ds.cardinalities()) cells += m;
  const double k = model.k();
  record.metric("core.best_clusters.rows_ps", kernel);
  record.metric("api.predict_rows.rows_ps", predict_rows);
  record.metric("api.predict_view.rows_ps", predict_view);
  record.metric("serve.predict_view.rows_ps", server_view);
  record.metric("api.pool_speedup", predict_rows / kernel);
  record.metric("host.nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
  record.metric("core.bank_bytes", k * cells * 8.0);
  record.metric("core.bank_bytes_per_row", k * static_cast<double>(d) * 8.0);
  record.note("bulk trace: core.bank_bytes = k * sum(cardinality) * 8 and "
              "core.bank_bytes_per_row = k * d * 8 are computed from the "
              "bank's shape (f64 quotients), not measured; api.pool_speedup "
              "is over " + std::to_string(global_pool().size()) +
              " pool threads on " +
              std::to_string(std::thread::hardware_concurrency()) + " cpus");
}

}  // namespace perfbench
