#include "record.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

using mcdc::api::Json;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"rows_ps", "rows/s"},
      {"op_p50_us", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // fit: the learning layers behind Engine::fit.
      {"api.engine.fit_s", "s"},
      {"api.engine.fit_ari", "ari"},
      {"api.engine.self_s", "s"},
      {"core.mgcpl.run_s", "s"},
      {"core.mgcpl.k0", "count"},
      {"core.mgcpl.stages", "count"},
      {"core.mgcpl.passes", "count"},
      {"core.mgcpl.n_exponent", "log-log"},
      {"core.kestimate_s", "s"},
      {"core.encode_gamma_s", "s"},
      {"core.came.run_s", "s"},
      {"core.came.iterations", "count"},
      {"api.model.from_fit_s", "s"},
      {"metrics.internal_scores_s", "s"},
      // bulk: the frozen kernel and the batch predict paths.
      {"core.best_clusters.rows_ps", "rows/s"},
      {"api.predict_rows.rows_ps", "rows/s"},
      {"api.predict_view.rows_ps", "rows/s"},
      {"serve.predict_view.rows_ps", "rows/s"},
      {"api.pool_speedup", "x"},
      {"host.nproc", "count"},
      {"core.bank_bytes", "B"},
      {"core.bank_bytes_per_row", "B"},
      // serve: the ladder from kernel to served request.
      {"ladder.kernel_rps", "req/s"},
      {"ladder.predict_rows_rps", "req/s"},
      {"ladder.bulk_rps", "req/s"},
      {"ladder.submit_rps", "req/s"},
      {"ladder.cluster_rps", "req/s"},
      {"ladder.bulk_over_submit", "x"},
      {"ladder.submit_over_cluster", "x"},
      {"ladder.gap_us_per_req", "us"},
      {"ladder.gap.batch_kernel_us", "us"},
      {"ladder.gap.dispatch_us", "us"},
      {"ladder.gap.submit_call_us", "us"},
      {"serve.submit_call_us.p50", "us"},
      {"serve.submit_call_us.p99", "us"},
      {"serve.ready_us.p50", "us"},
      {"serve.ready_us.p99", "us"},
      {"serve.batches", "count"},
      {"serve.batch_occupancy", "rows"},
      {"serve.cluster.batch_occupancy", "rows"},
      {"serve.cluster.route_skew", "x"},
      {"serve.gen_lag_us.p99", "us"},
      {"serve.rate_100k.p99_us", "us"},
      {"serve.rate_200k.p99_us", "us"},
      {"serve.rate_400k.p99_us", "us"},
      {"serve.rate_600k.p99_us", "us"},
      {"serve.rate_800k.p99_us", "us"},
      {"serve.rate_1000k.p99_us", "us"},
      {"serve.max_rps_at_slo", "req/s"},
      {"api.artifact.load_s", "s"},
      {"trace.overhead_pct.serve", "%"},
      // online: observe/tick with predicts alongside.
      {"serve.online.rows_ps", "rows/s"},
      {"serve.online.predict_p99_us", "us"},
      {"serve.online.observe_us_per_row", "us"},
      {"serve.online.tick_chunk_us", "us"},
      {"serve.online.ticks", "count"},
      {"serve.online.swaps", "count"},
      {"serve.online.refits", "count"},
      {"serve.online.holds", "count"},
      {"serve.online.generation", "count"},
      {"serve.online.publish_ratio", "ratio"},
      {"trace.overhead_pct.online", "%"},
  };
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

Record::Record(std::string workload, std::uint64_t seed, bool traced)
    : workload_(std::move(workload)), seed_(seed), traced_(traced) {}

void Record::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Record::phase(const Phase& phase) {
  phases_.push_back(phase);
  if (phase.failed > 0 || phase.succeeded + phase.failed != phase.attempted) {
    fail(phase.name + ": " + std::to_string(phase.failed) + " of " +
         std::to_string(phase.attempted) + " operations failed");
  }
}

void Record::fail(const std::string& why) { failures_.push_back(why); }

void Record::note(const std::string& line) { notes_.push_back(line); }

bool Record::correct() const { return failures_.empty(); }

Json Record::to_json() const {
  Json out = Json::object();
  out["workload"] = workload_;
  out["seed"] = static_cast<double>(seed_);
  out["traced"] = traced_;
  out["fingerprint"] = host_fingerprint();
  Json metrics = Json::object();
  for (const auto& [name, value] : metrics_) metrics[name] = value;
  out["metrics"] = std::move(metrics);
  Json phases = Json::array();
  for (const Phase& p : phases_) {
    Json j = Json::object();
    j["name"] = p.name;
    j["attempted"] = static_cast<double>(p.attempted);
    j["succeeded"] = static_cast<double>(p.succeeded);
    j["failed"] = static_cast<double>(p.failed);
    phases.push_back(std::move(j));
  }
  out["phases"] = std::move(phases);
  Json failures = Json::array();
  for (const std::string& f : failures_) failures.push_back(f);
  out["failures"] = std::move(failures);
  out["correct"] = correct();
  return out;
}

int Record::finish(const std::string& path, const Json* extra) {
  // Exactly the catalogue of this run's kind, each name once.
  const auto& specs = traced_ ? per_layer_metrics() : end_to_end_metrics();
  Json metrics = Json::object();
  for (const MetricSpec& spec : specs) {
    std::size_t seen = 0;
    double value = 0.0;
    for (const auto& [name, v] : metrics_) {
      if (name == spec.name) {
        ++seen;
        value = v;
      }
    }
    if (seen != 1 || !valid_metric_name(spec.name)) {
      fail(std::string("metric ") + spec.name + " reported " +
           std::to_string(seen) + " times");
      continue;
    }
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = spec.unit;
    metrics[spec.name] = std::move(m);
  }
  if (metrics_.size() != specs.size()) {
    fail("reported " + std::to_string(metrics_.size()) +
         " metrics, catalogue has " + std::to_string(specs.size()));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase& p : phases_) {
    attempted += p.attempted;
    failed += p.failed;
    std::printf("# phase %-28s attempted %10llu  succeeded %10llu  "
                "failed %llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed));
  }
  if (attempted == 0) fail("no operation was attempted");
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const std::string& f : failures_) std::printf("# FAIL %s\n", f.c_str());
  std::printf("# fingerprint %s\n", host_fingerprint().dump().c_str());

  Json doc = to_json();
  if (extra != nullptr) doc["trace"] = *extra;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream file(path);
  file << doc.dump(1) << '\n';
  if (!file) std::printf("# could not write %s\n", path.c_str());
  else std::printf("# record %s\n", path.c_str());

  Json summary = Json::object();
  summary["correct"] = correct();
  summary["attempted"] =
      static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  summary["failed"] = static_cast<double>(failed);
  summary["metrics"] = std::move(metrics);
  std::printf("%s\n", summary.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
