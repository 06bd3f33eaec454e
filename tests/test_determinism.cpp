// Thread-count determinism: every parallel_chunks consumer in the library
// must produce byte-identical results at 1, 2 and 8 workers. The chunks
// partition the index range and bodies write disjoint slots, so this is a
// contract, not a hope — the suite sweeps set_parallel_width over a pool
// forced to 8 workers (MCDC_THREADS, set before the pool exists) and
// compares:
//
//   - Engine::fit of "mcdc1" (Model::from_fit refinement sweeps) and of
//     "mcdc" (CAME assignment sweeps + refinement),
//   - Model::predict over a foreign dataset (dictionary re-coding path),
//   - StreamingMgcpl::classify over a window,
//   - core::estimate_k's staircase scoring (the row-parallel silhouette),
//   - active-learning select_queries (margin sweeps),
//   - serve::ModelServer batched predicts (BatchQueue -> predict_rows),
//   - the full serve::OnlineUpdater loop (observe -> drift -> swap/refit)
//     over a fixed two-act replay, snapshot predictions and every evidence
//     counter included,
//   - every registered method's frozen Model::predict under each SIMD
//     dispatch level × thread width (the core/simd.h byte-identity
//     contract).
//
// The width-1 results are additionally pinned as FNV-1a goldens (the same
// hash and guard as the 18-method table in test_profile_set.cpp): a moved
// hash means single-thread behaviour itself drifted, which is a different
// failure than a thread-count divergence and must be just as deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "common/thread_pool.h"
#include "core/simd.h"
#include "core/active.h"
#include "core/kestimate.h"
#include "core/mgcpl.h"
#include "core/streaming.h"
#include "data/noise.h"
#include "data/synthetic.h"
#include "serve/online.h"
#include "serve/server.h"

namespace mcdc {
namespace {

// An 8-worker pool regardless of the machine (single-core CI runners would
// otherwise collapse every width to the inline path). Runs before main(),
// hence before the first global_pool() call anywhere in this binary; an
// explicit MCDC_THREADS in the environment wins.
const bool kForcePoolWidth = [] {
  ::setenv("MCDC_THREADS", "8", /*overwrite=*/0);
  return true;
}();

constexpr std::size_t kWidths[] = {1, 2, 8};

std::uint64_t fnv1a(std::uint64_t h, const std::vector<int>& v) {
  for (const int x : v) {
    auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

// Runs `consumer` at each width, asserts byte-identity against width 1 and
// returns the width-1 labels (for the golden pins).
std::vector<int> sweep_widths(
    const char* what, const std::function<std::vector<int>()>& consumer) {
  std::vector<int> reference;
  for (const std::size_t width : kWidths) {
    const std::size_t previous = set_parallel_width(width);
    std::vector<int> got = consumer();
    set_parallel_width(previous);
    if (width == kWidths[0]) {
      reference = std::move(got);
    } else {
      EXPECT_EQ(got, reference)
          << what << ": labels diverged between 1 and " << width
          << " workers";
    }
  }
  return reference;
}

data::Dataset fit_dataset() {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.72;
  config.seed = 13;
  return data::with_missing_cells(data::well_separated(config), 0.08, 99);
}

data::Dataset foreign_dataset() {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.6;
  config.seed = 31;
  return data::with_missing_cells(data::well_separated(config), 0.1, 7);
}

api::FitResult fit(const data::DatasetView& ds, const char* method) {
  api::Engine engine;
  api::FitOptions options;
  options.method = method;
  options.k = 3;
  options.seed = 17;
  options.evaluate = false;
  options.stage_reports = false;
  return engine.fit(ds, options);
}

TEST(ThreadDeterminism, PoolHasEightWorkers) {
  ASSERT_TRUE(kForcePoolWidth);
  EXPECT_GE(global_pool().size(), 8u);
}

TEST(ThreadDeterminism, EngineFitsAreWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  std::uint64_t h = kFnvSeed;
  for (const char* method : {"mcdc1", "mcdc"}) {
    const std::vector<int> labels = sweep_widths(method, [&] {
      const api::FitResult result = fit(ds, method);
      EXPECT_TRUE(result.ok()) << method;
      return result.report.labels;
    });
    h = fnv1a(h, labels);
  }
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0x4551e46199e0a005ULL) << "single-thread fit labels drifted";
#endif
}

TEST(ThreadDeterminism, ModelPredictIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const data::Dataset foreign = foreign_dataset();
  const api::FitResult result = fit(ds, "mcdc1");
  ASSERT_TRUE(result.ok());
  const std::vector<int> labels = sweep_widths(
      "Model::predict", [&] { return result.model.predict(foreign); });
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x7f1d7b9d3972d665ULL)
      << "single-thread predict labels drifted";
#endif
}

TEST(ThreadDeterminism, StreamingClassifyIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  core::StreamingMgcpl stream(ds.cardinalities());
  stream.observe_chunk(ds);
  const data::Dataset window = foreign_dataset();
  const std::vector<int> labels = sweep_widths(
      "StreamingMgcpl::classify", [&] { return stream.classify(window); });
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x3e88a1b7bdc27525ULL)
      << "single-thread classify labels drifted";
#endif
}

// The staircase scoring behind Engine::fit's k = 0 path: the categorical
// silhouette fans rows out over the pool, so every candidate's evidence
// (k, silhouette and blended score as raw bits) and the recommended k must
// reproduce at every width.
TEST(ThreadDeterminism, KEstimateIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const core::MgcplResult mgcpl = core::Mgcpl().run(ds, 17);
  const std::vector<int> evidence = sweep_widths("estimate_k", [&] {
    const core::KEstimate estimate = core::estimate_k(ds, mgcpl);
    std::vector<int> out = {estimate.recommended_k};
    for (const core::KCandidate& candidate : estimate.candidates) {
      out.push_back(candidate.k);
      for (const double x : {candidate.silhouette, candidate.score}) {
        std::uint64_t u = 0;
        std::memcpy(&u, &x, sizeof u);
        out.push_back(static_cast<int>(static_cast<std::uint32_t>(u)));
        out.push_back(static_cast<int>(static_cast<std::uint32_t>(u >> 32)));
      }
    }
    return out;
  });
  EXPECT_GT(evidence.size(), 1u);
#if defined(__linux__) && defined(__GLIBC__)
  // Pinned from the per-cluster mean_distance silhouette that the
  // mismatch bank replaced: the rewrite moved no bit of the evidence.
  EXPECT_EQ(fnv1a(kFnvSeed, evidence), 0x5c0c4d5181f78f69ULL)
      << "single-thread k-estimation evidence drifted";
#endif
}

TEST(ThreadDeterminism, ActiveLearningMarginsAreWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const core::MgcplResult mgcpl = core::Mgcpl().run(ds, 17);
  const std::vector<int> queries =
      sweep_widths("select_queries", [&] {
        core::QuerySelectionConfig config;
        config.budget = 24;
        const core::QuerySelection selection =
            core::select_queries(ds, mgcpl, config);
        std::vector<int> out;
        out.reserve(selection.queries.size());
        for (const std::size_t q : selection.queries) {
          out.push_back(static_cast<int>(q));
        }
        return out;
      });
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, queries), 0x952d8a1f33f63346ULL)
      << "single-thread query ranking drifted";
#endif
}

TEST(ThreadDeterminism, ServingSweepsAreWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const api::FitResult result = fit(ds, "mcdc1");
  ASSERT_TRUE(result.ok());
  const auto model = std::make_shared<const api::Model>(result.model);

  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);

  const std::vector<int> labels = sweep_widths("ModelServer", [&] {
    serve::ServeConfig config;
    config.queue.max_batch = 64;
    serve::ModelServer server(model, config);
    // Pipelined submits so the dispatcher drains real multi-row batches
    // (each batch is one parallel predict_rows sweep).
    std::vector<std::future<int>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(server.submit(rows.data() + i * d));
    }
    std::vector<int> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = futures[i].get();
    return out;
  });
  EXPECT_EQ(labels, model->predict(ds));
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x4e5430f4751796a5ULL)
      << "single-thread served labels drifted";
#endif
}

// Dispatch-level determinism: core/simd.h promises byte-identical labels
// across the scalar and AVX2 kernel tables at every thread width. For
// every registered method this fits once (the fit itself is level-
// invariant — the registry goldens in test_profile_set.cpp pin it), then
// sweeps the frozen consumer Model::predict over a foreign dataset under
// {scalar, avx2} × {1, 2, 8 workers}, asserting label identity and
// accumulating one FNV golden per dispatch level. On hosts without AVX2
// the avx2 leg degrades to scalar (set_level's documented behaviour), so
// the comparison is trivially green there and the golden still holds; on
// AVX2 hardware a split between the two hashes means the vector path
// reassociated or fused where the scalar path does not.
TEST(ThreadDeterminism, FrozenPredictsMatchAcrossSimdLevelsAndWidths) {
  const data::Dataset ds = fit_dataset();
  const data::Dataset foreign = foreign_dataset();
  const core::simd::Level entry = core::simd::level();

  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  std::size_t covered = 0;
  for (const api::MethodInfo& method : api::registry().methods()) {
    const api::FitResult result = fit(ds, method.key.c_str());
    std::vector<int> per_level[2];
    for (const core::simd::Level level :
         {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
      const auto idx = static_cast<std::size_t>(level);
      core::simd::set_level(level);
      per_level[idx] = sweep_widths(method.key.c_str(), [&] {
        return result.ok() ? result.model.predict(foreign)
                           : std::vector<int>();
      });
      hashes[idx] = fnv1a(hashes[idx], per_level[idx]);
    }
    EXPECT_EQ(per_level[0], per_level[1])
        << method.key << ": labels diverged between the scalar and "
        << core::simd::level_name(core::simd::level()) << " kernel tables";
    ++covered;
  }
  core::simd::set_level(entry);
  // Every registered method must take part; a new registration is covered
  // automatically but still has to keep the goldens below in place.
  EXPECT_EQ(covered, api::registry().methods().size());
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(hashes[0], 0xdde65f00d377d996ULL)
      << "scalar frozen predict labels drifted";
  EXPECT_EQ(hashes[1], hashes[0])
      << "AVX2 kernels diverged from the scalar baseline";
#endif
}

// The whole continuous-learning loop, replayed twice per width: a clean
// act then a code-shifted act (the standard injected drift), closed by a
// manual tick. The decision sequence is row-counted and every parallel
// consumer inside it (learner classify, snapshot predict_rows) is
// width-invariant, so ticks, swaps, refits, the published generation and
// the final snapshot's predictions must all reproduce bit-exactly.
TEST(ThreadDeterminism, OnlineLoopIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);
  std::vector<data::Value> shifted(rows);
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    const int card = ds.cardinalities()[i % d];
    if (shifted[i] != data::kMissing && card > 1) {
      shifted[i] = (shifted[i] + 1) % card;
    }
  }

  const std::vector<int> outcome = sweep_widths("OnlineUpdater", [&] {
    api::Engine engine;
    api::FitOptions options;
    options.method = "mcdc1";
    options.k = 3;
    options.seed = 17;
    options.evaluate = false;
    options.stage_reports = false;
    EXPECT_TRUE(engine.fit(ds, options).ok());
    serve::OnlineConfig config;
    config.tick_every = 64;
    config.window_capacity = 64;
    config.min_refit_rows = 32;
    config.drift_threshold = 0.1;
    const auto updater = engine.serve_online(config);
    std::vector<int> out = updater->observe(rows.data(), n);
    const std::vector<int> drifted = updater->observe(shifted.data(), n);
    out.insert(out.end(), drifted.begin(), drifted.end());
    updater->tick();
    const api::OnlineEvidence evidence = updater->evidence();
    const auto snapshot = updater->server()->snapshot();
    std::vector<int> served(n);
    snapshot->predict_rows(shifted.data(), n, served.data());
    out.insert(out.end(), served.begin(), served.end());
    out.push_back(static_cast<int>(evidence.ticks));
    out.push_back(static_cast<int>(evidence.swaps));
    out.push_back(static_cast<int>(evidence.refits));
    out.push_back(static_cast<int>(evidence.holds));
    // rows_absorbed counts distinct stream rows (refit replays do not
    // re-count), so both counters equal the 2n rows this replay feeds.
    out.push_back(static_cast<int>(evidence.rows_observed));
    out.push_back(static_cast<int>(evidence.rows_absorbed));
    out.push_back(static_cast<int>(evidence.generation));
    out.push_back(static_cast<int>(evidence.first_refit_tick));
    out.push_back(evidence.clusters);
    updater->server()->stop();
    return out;
  });
#if defined(__linux__) && defined(__GLIBC__)
  // Golden re-pinned when rows_observed/rows_absorbed joined the outcome
  // vector (and the absorb counter stopped double-counting refit replays);
  // the decision sequence itself is unchanged from the previous pin.
  EXPECT_EQ(fnv1a(kFnvSeed, outcome), 0x010924e709361159ULL)
      << "single-thread online loop drifted";
#endif
}

// Mgcpl::run's whole output flattened for hashing: k0, kappa, every Gamma
// partition and every stage's k_before/k_after/passes.
std::vector<int> flatten(const core::MgcplResult& result) {
  std::vector<int> out = {result.k0, result.sigma()};
  out.insert(out.end(), result.kappa.begin(), result.kappa.end());
  for (const std::vector<int>& partition : result.partitions) {
    out.insert(out.end(), partition.begin(), partition.end());
  }
  for (const core::MgcplStageStats& stage : result.stages) {
    out.push_back(stage.k_before);
    out.push_back(stage.k_after);
    out.push_back(stage.passes);
  }
  return out;
}

// The multi-granular learning itself, pinned per SIMD dispatch level on
// the NULL-bearing fit data and on a nested (coarse x fine) dataset. The
// competitive sweep is serial, so a moved hash means the per-row scoring,
// the penalty or the bank maintenance changed a bit somewhere in Gamma.
TEST(MgcplGolden, GammaIsPinnedAtEverySimdLevel) {
  data::NestedConfig config;
  config.num_objects = 2000;
  config.num_features = 16;
  config.num_coarse = 4;
  config.fine_per_coarse = 3;
  config.cardinality = 12;
  config.purity = 0.8;
  config.seed = 5;
  const data::Dataset nested = data::nested(config).dataset;
  const data::Dataset ds = fit_dataset();
  const core::simd::Level entry = core::simd::level();

  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    std::uint64_t& h = hashes[static_cast<std::size_t>(level)];
    h = fnv1a(h, flatten(core::Mgcpl().run(ds, 17)));
    h = fnv1a(h, flatten(core::Mgcpl().run(nested, 7)));
  }
  core::simd::set_level(entry);
#if defined(__linux__) && defined(__GLIBC__)
  // Pinned from the per-row sweep that re-divided every live quotient,
  // before the stage scored rows from its weighted-quotient bank.
  EXPECT_EQ(hashes[0], 0x8bebc0da3eb23e9dULL) << "scalar MGCPL Gamma drifted";
  EXPECT_EQ(hashes[1], hashes[0])
      << "AVX2 MGCPL Gamma diverged from the scalar baseline";
#endif
}

}  // namespace
}  // namespace mcdc
