// online: an OnlineUpdater (default streaming learner, the `ensemble`
// drift detectors) observes a 1M-row Syn_n-shaped stream in 64-row
// chunks; alternate 250k-row segments are code-shifted (an abrupt drift),
// so refits and swaps land mid-stream. Meanwhile a fixed 100k req/s open
// loop predicts against the same ModelServer. The only workload that runs
// core streaming, serve/online and serve/drift.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "serve/online.h"

namespace perfbench {

using namespace mcdc;

namespace {

constexpr std::size_t kStream = 1000000;
constexpr std::size_t kSegment = 250000;
constexpr std::size_t kChunk = 64;
constexpr std::size_t kSeedRows = 20000;
constexpr std::uint64_t kPredictRate = 100000;

struct OnlineInputs {
  std::size_t d = 0;
  std::vector<data::Value> stream;  // row-major, odd segments shifted
  std::shared_ptr<const api::Model> initial;
};

// The stream, and the first published model: the ground-truth partition
// of the first kSeedRows rows.
std::unique_ptr<OnlineInputs> online_inputs(std::uint64_t seed) {
  auto inputs = std::make_unique<OnlineInputs>();
  const data::Dataset ds = data::syn_n(kStream, derive_seed(seed, 6));
  inputs->d = ds.num_features();
  inputs->stream = gather_rows(ds);
  const std::vector<int>& m = ds.cardinalities();
  for (std::size_t i = kSegment; i < kStream; ++i) {
    if ((i / kSegment) % 2 == 0) continue;
    for (std::size_t r = 0; r < inputs->d; ++r) {
      data::Value& v = inputs->stream[i * inputs->d + r];
      if (v != data::kMissing && m[r] > 1) v = (v + 1) % m[r];
    }
  }
  std::vector<std::size_t> rows(kSeedRows);
  for (std::size_t i = 0; i < kSeedRows; ++i) rows[i] = i;
  const std::vector<int> truth = ds.labels();
  inputs->initial = std::make_shared<const api::Model>(api::Model::from_fit(
      "perfbench-online", data::DatasetView(ds, rows),
      std::vector<int>(truth.begin(), truth.begin() + kSeedRows), 3, {}, {},
      /*refine=*/false));
  return inputs;
}

serve::OnlineConfig online_config() {
  serve::OnlineConfig config;
  config.detector = "ensemble";
  return config;
}

struct Loop {
  std::shared_ptr<serve::ModelServer> server;
  std::unique_ptr<serve::OnlineUpdater> updater;
};

Loop make_loop(const OnlineInputs& inputs) {
  const serve::OnlineConfig config = online_config();
  Loop loop;
  loop.server = std::make_shared<serve::ModelServer>(inputs.initial);
  loop.updater = std::make_unique<serve::OnlineUpdater>(
      loop.server,
      serve::make_online_learner(config, inputs.initial->cardinalities(),
                                 inputs.initial->value_dictionaries()),
      config);
  return loop;
}

// The decision counters a replay must reproduce.
std::vector<std::uint64_t> counters(const api::OnlineEvidence& e) {
  return {e.ticks, e.swaps, e.refits, e.holds, e.generation, e.rows_observed};
}

struct Pass {
  double seconds = 0.0;
  // Per-chunk observe time (traced only): chunks that cross no tick, and
  // chunks that cross one (and so run its drift check, swap or refit).
  std::vector<double> plain_chunk_us;
  std::vector<double> tick_chunk_us;
  api::OnlineEvidence evidence;
  OpenLoopResult predicts;
};

// Observes the whole stream on this thread while a 100k req/s open loop
// predicts against the same server from two others.
Pass run_pass(const OnlineInputs& inputs, Tracer* tracer) {
  Loop loop = make_loop(inputs);
  Pass pass;
  std::atomic<bool> stop{false};
  const std::size_t d = inputs.d;
  std::thread traffic([&] {
    pass.predicts = open_loop(
        kPredictRate, 600.0, kStream,
        [&](std::size_t row) {
          return loop.server->submit(inputs.stream.data() + row * d);
        },
        [](std::size_t, int label) { return label >= 0; }, nullptr, &stop,
        "online.predicts");
  });
  const std::size_t tick_every = online_config().tick_every;
  if (tracer != nullptr) pass.plain_chunk_us.reserve(kStream / kChunk);
  const std::int64_t start = now_ns();
  for (std::size_t lo = 0; lo < kStream; lo += kChunk) {
    const data::Value* chunk = inputs.stream.data() + lo * d;
    if (tracer == nullptr) {
      loop.updater->observe(chunk, kChunk);
      continue;
    }
    // A chunk crosses a tick when a multiple of tick_every falls inside it.
    const bool ticks = (lo + kChunk) / tick_every != lo / tick_every;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, ticks ? "serve.OnlineUpdater::observe[tick]"
                                    : "serve.OnlineUpdater::observe");
      loop.updater->observe(chunk, kChunk);
    }
    (ticks ? pass.tick_chunk_us : pass.plain_chunk_us)
        .push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  pass.seconds = static_cast<double>(now_ns() - start) / 1e9;
  stop.store(true);
  traffic.join();
  pass.evidence = loop.updater->evidence();
  loop.server->stop();
  return pass;
}

// The same stream, one thread, no traffic: the decisions every pass must
// reproduce (the loop counts its cadence in rows, never in time).
std::vector<std::uint64_t> replay_counters(const OnlineInputs& inputs) {
  Loop loop = make_loop(inputs);
  for (std::size_t lo = 0; lo < kStream; lo += kChunk) {
    loop.updater->observe(inputs.stream.data() + lo * inputs.d, kChunk);
  }
  loop.server->stop();
  return counters(loop.updater->evidence());
}

void count_pass(Phase& observe, Phase& predicts, const Pass& pass,
                const std::vector<std::uint64_t>& expected) {
  ++observe.attempted;
  const bool same = counters(pass.evidence) == expected;
  (same ? observe.succeeded : observe.failed) += 1;
  predicts.attempted += pass.predicts.phase.attempted;
  predicts.succeeded += pass.predicts.phase.succeeded;
  predicts.failed += pass.predicts.phase.failed;
}

}  // namespace

void run_online(const Options& options, Record& record) {
  std::vector<double> setups;
  std::unique_ptr<OnlineInputs> inputs;
  for (int r = 0; r < 5; ++r) {
    inputs.reset();
    Timer timer;
    inputs = online_inputs(options.seed);
    Loop warm = make_loop(*inputs);
    (void)warm.server->predict(inputs->stream.data());
    warm.server->stop();
    setups.push_back(timer.elapsed_seconds());
  }
  const std::int64_t replay_start = now_ns();
  const std::vector<std::uint64_t> expected = replay_counters(*inputs);
  const double replay_rps = static_cast<double>(kStream) * 1e9 /
                            static_cast<double>(now_ns() - replay_start);

  Phase observe{"online.pass_matches_replay"};
  Phase predicts{"online.predicts"};
  std::vector<double> rates;
  LatencyHistogram latency;
  std::vector<double> window_p99_us;
  Timer budget;
  while (rates.empty() || budget.elapsed_seconds() < options.seconds * 0.8) {
    const Pass pass = run_pass(*inputs, nullptr);
    rates.push_back(static_cast<double>(kStream) / pass.seconds);
    latency.merge(pass.predicts.latency);
    const std::vector<double>& windows = pass.predicts.window_p99_us;
    window_p99_us.insert(window_p99_us.end(), windows.begin(), windows.end());
    count_pass(observe, predicts, pass, expected);
  }
  record.phase(observe);
  record.phase(predicts);
  record.metric("setup_s", median(setups));
  record.metric("rows_ps", median(rates));
  record.metric("op_p50_us", latency.percentile_us(50.0));
  char line[256];
  std::snprintf(line, sizeof line,
                "online: %zu passes of %zu rows; decisions per pass: %llu "
                "ticks, %llu swaps, %llu refits; %llu predicts at %llu "
                "req/s, p99 %.1f us (median 100-ms window %.1f us)",
                rates.size(), kStream,
                static_cast<unsigned long long>(expected[0]),
                static_cast<unsigned long long>(expected[1]),
                static_cast<unsigned long long>(expected[2]),
                static_cast<unsigned long long>(latency.count()),
                static_cast<unsigned long long>(kPredictRate),
                latency.percentile_us(99.0), median(window_p99_us));
  record.note(line);
  record.note("online replay without traffic: " +
              std::to_string(static_cast<long>(replay_rps)) + " rows/s");
  record.note(with_values("online pass rows/s:", rates));
}

void trace_online(const Options& options, Record& record, Tracer& tracer) {
  const std::unique_ptr<OnlineInputs> inputs = online_inputs(options.seed);
  const Pass untraced = run_pass(*inputs, nullptr);
  const Pass traced = run_pass(*inputs, &tracer);
  Phase observe{"online.trace_matches_untraced"};
  Phase predicts{"online.trace_predicts"};
  count_pass(observe, predicts, traced, counters(untraced.evidence));
  count_pass(observe, predicts, untraced, counters(untraced.evidence));
  record.phase(observe);
  record.phase(predicts);

  double tick_us = 0.0;
  for (const double us : traced.tick_chunk_us) tick_us += us;
  const api::OnlineEvidence& e = traced.evidence;
  const double untraced_rps = static_cast<double>(kStream) / untraced.seconds;
  const double traced_rps = static_cast<double>(kStream) / traced.seconds;
  record.metric("serve.online.rows_ps", untraced_rps);
  record.metric("serve.online.observe_us_per_row",
                median(traced.plain_chunk_us) / static_cast<double>(kChunk));
  record.metric("serve.online.tick_chunk_us",
                traced.tick_chunk_us.empty()
                    ? 0.0
                    : tick_us /
                          static_cast<double>(traced.tick_chunk_us.size()));
  record.metric("serve.online.ticks", static_cast<double>(e.ticks));
  record.metric("serve.online.swaps", static_cast<double>(e.swaps));
  record.metric("serve.online.refits", static_cast<double>(e.refits));
  record.metric("serve.online.holds", static_cast<double>(e.holds));
  record.metric("serve.online.generation", static_cast<double>(e.generation));
  record.metric("serve.online.publish_ratio",
                e.ticks > 0 ? static_cast<double>(e.swaps + e.refits) /
                                  static_cast<double>(e.ticks)
                            : 0.0);
  record.metric("serve.online.predict_p99_us",
                median(untraced.predicts.window_p99_us));
  record.metric("trace.overhead_pct.online",
                100.0 * (1.0 - traced_rps / untraced_rps));
}

}  // namespace perfbench
