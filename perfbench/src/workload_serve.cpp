// serve: single-row requests for a k = 32, d = 10 Syn_n-shaped model
// loaded from a binary artifact at set-up. (a) Closed loop: 3 producers,
// each keeping 128 requests in flight, through ModelServer::submit (and,
// traced, through a 4-shard kHash ServingCluster). (b) Open loop: one
// generator thread at fixed absolute rates and one collector thread. The
// kernel is a small share of a request here, so the queue, promise,
// dispatcher and stats mutex set the result; the bulk path sits idle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "common/timer.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace mcdc;

namespace {

constexpr std::size_t kRows = 65536;
constexpr int kClusters = 32;
constexpr int kProducers = 3;
constexpr std::size_t kInFlight = 128;
constexpr std::uint64_t kLatencyRate = 200000;  // op_p50_us
// The open-loop rate ladder (req/s), pinned: never derived from a
// measured capacity. The metric names in BENCHMARK.json carry the rates.
constexpr std::uint64_t kRates[] = {100000, 200000, 400000,
                                    600000, 800000, 1000000};
constexpr double kSloUs = 1000.0;

struct ServeState {
  data::Dataset ds;
  std::vector<data::Value> rows;
  std::shared_ptr<const api::Model> model;  // as loaded from the artifact
  std::unique_ptr<serve::ModelServer> server;
};

std::string artifact_path(const Options& options) {
  return options.out_dir + "/serve-model-" + std::to_string(options.seed) +
         ".bin";
}

std::unique_ptr<ServeState> serve_setup(const Options& options) {
  auto state = std::make_unique<ServeState>();
  state->ds = data::syn_n(kRows, derive_seed(options.seed, 4));
  state->rows = gather_rows(state->ds);
  const std::string path = artifact_path(options);
  std::filesystem::create_directories(options.out_dir);
  random_model(state->ds, kClusters, derive_seed(options.seed, 5))
      ->save_binary(path);
  state->model =
      std::make_shared<const api::Model>(api::Model::load_binary(path));
  std::filesystem::remove(path);
  state->server = std::make_unique<serve::ModelServer>(state->model);
  // Warm-up: a few batches through the queue, so threads and buffers exist.
  const std::size_t d = state->ds.num_features();
  std::vector<std::future<int>> warm;
  for (std::size_t i = 0; i < 4096; ++i) {
    warm.push_back(state->server->submit(state->rows.data() + i * d));
    if (warm.size() == kInFlight) {
      for (auto& f : warm) f.get();
      warm.clear();
    }
  }
  for (auto& f : warm) f.get();
  return state;
}

OpenLoopResult serve_open_loop(ServeState& state, serve::ModelServer& server,
                               const std::vector<int>& reference,
                               std::uint64_t rate, double seconds,
                               Tracer* tracer, const char* name) {
  const std::size_t d = state.ds.num_features();
  return open_loop(
      rate, seconds, reference.size(),
      [&](std::size_t row) {
        return server.submit(state.rows.data() + row * d);
      },
      [&](std::size_t row, int label) { return label == reference[row]; },
      tracer, nullptr, name);
}

// The closed loop, one fresh ModelServer per round: where the scheduler
// puts the dispatcher thread sticks for a server's lifetime, so fresh
// servers spread that luck over the rounds instead of over runs.
ClosedLoopResult fresh_server_rounds(ServeState& state,
                                     const std::vector<int>& reference,
                                     int rounds, double round_seconds) {
  ClosedLoopResult out;
  out.phase.name = "serve.closed_loop_submit";
  const std::size_t d = state.ds.num_features();
  for (int r = 0; r < rounds; ++r) {
    serve::ModelServer server(state.model);
    const ClosedLoopResult round =
        closed_loop(server, state.rows, d, reference, kProducers, kInFlight, 1,
                    round_seconds, nullptr, "");
    out.round_rps.push_back(round.rps);
    out.phase.attempted += round.phase.attempted;
    out.phase.succeeded += round.phase.succeeded;
    out.phase.failed += round.phase.failed;
  }
  out.rps = median(out.round_rps);
  return out;
}

}  // namespace

void run_serve(const Options& options, Record& record) {
  std::vector<double> setups;
  std::unique_ptr<ServeState> state;
  for (int r = 0; r < 7; ++r) {
    state.reset();
    Timer timer;
    state = serve_setup(options);
    setups.push_back(timer.elapsed_seconds());
  }
  const std::vector<int> reference = state->model->predict(state->ds);

  const ClosedLoopResult closed =
      fresh_server_rounds(*state, reference, 20, options.seconds * 0.5 / 20.0);
  record.phase(closed.phase);
  const OpenLoopResult open =
      serve_open_loop(*state, *state->server, reference, kLatencyRate,
                      options.seconds * 0.45, nullptr, "serve.open_loop_200k");
  record.phase(open.phase);

  record.metric("setup_s", median(setups));
  record.metric("rows_ps", closed.rps);
  record.metric("op_p50_us", open.latency.percentile_us(50.0));
  char line[256];
  std::snprintf(line, sizeof line,
                "serve: closed loop %.0f req/s (median of %zu rounds); open "
                "loop %llu req/s offered, %llu samples, p99.9 %.1f us, window "
                "p99 median %.1f us, generator lag p99 %.1f us",
                closed.rps, closed.round_rps.size(),
                static_cast<unsigned long long>(open.rate),
                static_cast<unsigned long long>(open.latency.count()),
                open.latency.percentile_us(99.9), open.window_median_p99_us(),
                open.gen_lag.percentile_us(99.0));
  record.note(line);
  record.note(with_values("serve closed-loop rounds req/s:", closed.round_rps));
  record.note(with_values("serve open-loop 100-ms window p99 us:",
                          open.window_p99_us));
}

void trace_serve(const Options& options, Record& record, Tracer& tracer,
                 double seconds) {
  const std::unique_ptr<ServeState> state = serve_setup(options);
  const data::Dataset& ds = state->ds;
  const api::Model& model = *state->model;
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  const std::vector<int> reference = model.predict(ds);
  const double slice = seconds / 14.0;
  const double items = static_cast<double>(n);
  std::vector<int> out(n);
  Phase labels{"serve.trace_ladder_labels"};
  const auto check_all = [&] {
    ++labels.attempted;
    (out == reference ? labels.succeeded : labels.failed) += 1;
  };

  // Artifact load, repeated (each load is well under a millisecond).
  {
    const std::string path = artifact_path(options);
    model.save_binary(path);
    std::vector<double> loads;
    for (int i = 0; i < 9; ++i) {
      Timer timer;
      ScopedSpan span(&tracer, "api.Model::load_binary");
      const api::Model loaded = api::Model::load_binary(path);
      loads.push_back(timer.elapsed_seconds());
    }
    std::filesystem::remove(path);
    record.metric("api.artifact.load_s", median(loads));
  }

  // The ladder, untraced, on the same rows and model.
  const core::ProfileSet& bank = model.profile_bank();
  bank.freeze();
  const double kernel_rps = median_rate(items, slice, [&] {
    bank.best_clusters(state->rows.data(), n, out.data());
  });
  check_all();
  const double predict_rows_rps = median_rate(items, slice, [&] {
    model.predict_rows(state->rows.data(), n, out.data());
  });
  check_all();
  const double bulk_rps =
      median_rate(items, slice, [&] { out = state->server->predict(ds); });
  check_all();
  record.phase(labels);

  serve::ModelServer ladder_server(state->model);
  const ClosedLoopResult submit =
      closed_loop(ladder_server, state->rows, d, reference, kProducers,
                  kInFlight, 4, slice / 4.0, nullptr, "serve.trace_submit");
  record.phase(submit.phase);
  ladder_server.stop();
  const api::ServeEvidence stats = ladder_server.stats();

  serve::ClusterConfig cluster_config;
  cluster_config.num_shards = 4;
  cluster_config.routing = serve::RoutingMode::kHash;
  serve::ServingCluster cluster(state->model, cluster_config);
  const ClosedLoopResult clustered =
      closed_loop(cluster, state->rows, d, reference, kProducers, kInFlight, 4,
                  slice / 4.0, nullptr, "serve.trace_cluster_submit");
  record.phase(clustered.phase);
  cluster.stop();
  std::uint64_t shard_requests = 0;
  std::uint64_t shard_batches = 0;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    const api::ServeEvidence shard = cluster.shard_stats(s);
    shard_requests += shard.requests;
    shard_batches += shard.batches;
  }
  const api::ServeEvidence cluster_stats = cluster.stats();
  double routed_max = 0.0;
  double routed_sum = 0.0;
  for (const std::uint64_t r : cluster_stats.routed) {
    routed_max = std::max(routed_max, static_cast<double>(r));
    routed_sum += static_cast<double>(r);
  }

  // The kernel at the batch size the dispatcher actually formed.
  const std::size_t occupancy = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(stats.batch_occupancy)));
  const double batch_kernel_rps = median_rate(items, slice, [&] {
    ScopedSpan span(&tracer, "api.Model::predict_rows[batch=occupancy]");
    for (std::size_t lo = 0; lo < n; lo += occupancy) {
      const std::size_t m = std::min(occupancy, n - lo);
      model.predict_rows(state->rows.data() + lo * d, m, out.data() + lo);
    }
  });

  // Traced pass of the submit rung: spans around every submit() and every
  // future wait; its rate against the untraced rung is the overhead.
  const ClosedLoopResult traced =
      closed_loop(*state->server, state->rows, d, reference, kProducers,
                  kInFlight, 2, slice / 2.0, &tracer,
                  "serve.trace_submit_spans");
  record.phase(traced.phase);
  double submit_call_mean_us = 0.0;
  for (const auto& [name, totals] : tracer.totals()) {
    if (name == "ModelServer::submit" && totals.count > 0) {
      submit_call_mean_us =
          totals.self_s * 1e6 / static_cast<double>(totals.count);
    }
  }

  // Open-loop rate ladder; 200k once more with spans for the request
  // breakdown (due -> submit -> ready).
  double max_rps_at_slo = 0.0;
  bool below_knee = true;
  for (const std::uint64_t rate : kRates) {
    const std::string name = "serve.rate_" + std::to_string(rate / 1000) + "k";
    const OpenLoopResult open = serve_open_loop(
        *state, *state->server, reference, rate, slice, nullptr, name.c_str());
    record.phase(open.phase);
    record.metric(name + ".p99_us", open.window_median_p99_us());
    below_knee = below_knee && open.meets_slo(kSloUs);
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s: achieved %.0f req/s, window-median p99 %.1f us, whole "
                  "p99 %.1f us, generator lag p99 %.1f us, median backlog %.0f",
                  name.c_str(), open.achieved_rps, open.window_median_p99_us(),
                  open.latency.percentile_us(99.0),
                  open.gen_lag.percentile_us(99.0),
                  median(open.window_backlog));
    record.note(line);
    if (below_knee) max_rps_at_slo = open.achieved_rps;
  }
  const OpenLoopResult spans =
      serve_open_loop(*state, *state->server, reference, kLatencyRate, slice,
                      &tracer, "serve.rate_200k_spans");
  record.phase(spans.phase);

  const double req_us_bulk = 1e6 / bulk_rps;
  const double req_us_submit = 1e6 / submit.rps;
  const double gap_us = req_us_submit - req_us_bulk;
  const double batch_kernel_us = 1e6 / batch_kernel_rps - req_us_bulk;

  record.metric("ladder.kernel_rps", kernel_rps);
  record.metric("ladder.predict_rows_rps", predict_rows_rps);
  record.metric("ladder.bulk_rps", bulk_rps);
  record.metric("ladder.submit_rps", submit.rps);
  record.metric("ladder.cluster_rps", clustered.rps);
  record.metric("ladder.bulk_over_submit", bulk_rps / submit.rps);
  record.metric("ladder.submit_over_cluster", submit.rps / clustered.rps);
  record.metric("ladder.gap_us_per_req", gap_us);
  record.metric("ladder.gap.batch_kernel_us", batch_kernel_us);
  record.metric("ladder.gap.dispatch_us", gap_us - batch_kernel_us);
  record.metric("ladder.gap.submit_call_us", submit_call_mean_us / kProducers);
  record.metric("serve.submit_call_us.p50",
                traced.submit_call.percentile_us(50.0));
  record.metric("serve.submit_call_us.p99",
                traced.submit_call.percentile_us(99.0));
  record.metric("serve.ready_us.p50", spans.ready.percentile_us(50.0));
  record.metric("serve.ready_us.p99", spans.ready.percentile_us(99.0));
  record.metric("serve.batches", static_cast<double>(stats.batches));
  record.metric("serve.batch_occupancy", stats.batch_occupancy);
  record.metric("serve.cluster.batch_occupancy",
                shard_batches > 0 ? static_cast<double>(shard_requests) /
                                        static_cast<double>(shard_batches)
                                  : 0.0);
  const double shards = static_cast<double>(cluster_stats.routed.size());
  record.metric("serve.cluster.route_skew",
                routed_sum > 0.0 ? routed_max * shards / routed_sum : 0.0);
  record.metric("serve.gen_lag_us.p99", spans.gen_lag.percentile_us(99.0));
  record.metric("serve.max_rps_at_slo", max_rps_at_slo);
  record.metric("trace.overhead_pct.serve",
                100.0 * (1.0 - traced.rps / submit.rps));
  char line[320];
  std::snprintf(line, sizeof line,
                "serve trace: per request %.3f us bulk vs %.3f us submit; gap "
                "%.3f us = %.3f us kernel at batch %zu (span "
                "api.Model::predict_rows[batch=occupancy]) + %.3f us queue and "
                "dispatcher hand-off; producers spend %.3f us inside "
                "ModelServer::submit per request",
                req_us_bulk, req_us_submit, gap_us, batch_kernel_us, occupancy,
                gap_us - batch_kernel_us, submit_call_mean_us);
  record.note(line);
}

}  // namespace perfbench
