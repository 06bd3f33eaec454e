// The benchmark's own tests: percentile and histogram error against the
// exact nearest-rank value, the open-loop due-time schedule, refusal to
// compare records across host fingerprints, and the metric names (valid,
// unique, and exactly the names BENCHMARK.json lists).
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "record.h"
#include "stats.h"

namespace {

using namespace perfbench;
using mcdc::api::Json;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void test_nearest_rank() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  check(nearest_rank(v, 0) == 1, "p0 is the minimum");
  check(nearest_rank(v, 20) == 1, "p20 of 5 values is the first");
  check(nearest_rank(v, 50) == 3, "p50 of 5 values is the third");
  check(nearest_rank(v, 99) == 5, "p99 of 5 values is the maximum");
  check(nearest_rank({}, 50) == 0, "empty sample gives 0");
  check(median({7, 9}) == 7, "median of two is the lower (nearest rank)");
}

void test_histogram_error() {
  std::mt19937_64 rng(12345);
  // Log-uniform latencies from 50 ns to 50 ms.
  std::uniform_real_distribution<double> exponent(std::log(50.0),
                                                  std::log(5e7));
  std::vector<double> exact_us;
  LatencyHistogram whole;
  LatencyHistogram first;
  LatencyHistogram second;
  for (int i = 0; i < 200000; ++i) {
    const auto ns = static_cast<std::int64_t>(std::exp(exponent(rng)));
    exact_us.push_back(static_cast<double>(ns) / 1e3);
    whole.record_ns(ns);
    (i % 2 == 0 ? first : second).record_ns(ns);
  }
  first.merge(second);
  check(whole.count() == exact_us.size(), "histogram keeps every sample");
  check(first.count() == whole.count(), "merge adds counts");
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
    const double exact = nearest_rank(exact_us, p);
    const double got = whole.percentile_us(p);
    const double error = std::fabs(got - exact) / exact;
    char what[128];
    std::snprintf(what, sizeof what, "p%g within 1/256: exact %.4f got %.4f", p,
                  exact, got);
    check(error <= 1.0 / 256.0 + 1e-12, what);
    check(first.percentile_us(p) == got,
          std::string("merged p") + std::to_string(p));
  }
  // Small values are exact.
  LatencyHistogram small;
  for (int ns = 0; ns < 100; ++ns) small.record_ns(ns);
  check(small.percentile_us(50) == 0.049, "sub-128 ns values are exact");
  check(LatencyHistogram().percentile_us(99) == 0.0, "empty histogram gives 0");
}

void test_schedule() {
  for (const std::uint64_t rate :
       {100000ULL, 200000ULL, 300000ULL, 600000ULL, 7ULL}) {
    check(due_offset_ns(0, rate) == 0, "first request due at the start");
    check(due_offset_ns(rate, rate) == 1'000'000'000,
          "request `rate` due at 1 s");
    check(due_offset_ns(10 * rate, rate) == 10'000'000'000LL,
          "no drift after 10 s");
    const double interval = 1e9 / static_cast<double>(rate);
    bool monotone = true;
    bool spaced = true;
    std::uint64_t in_first_second = 0;
    for (std::uint64_t i = 0; i < rate + 5; ++i) {
      const std::int64_t now = due_offset_ns(i, rate);
      const std::int64_t next = due_offset_ns(i + 1, rate);
      monotone = monotone && next > now;
      const double gap = static_cast<double>(next - now);
      spaced = spaced && std::fabs(gap - interval) <= 1.0;
      if (now < 1'000'000'000) ++in_first_second;
    }
    check(monotone, "schedule strictly increases");
    check(spaced, "gaps are 1/rate to the nanosecond");
    check(in_first_second == rate,
          "exactly `rate` requests due in the first second");
  }
}

Json record_with(const Json& fingerprint) {
  Json record = Json::object();
  record["workload"] = "serve";
  record["traced"] = false;
  record["fingerprint"] = fingerprint;
  Json metrics = Json::object();
  metrics["rows_ps"] = 1000.0;
  record["metrics"] = metrics;
  return record;
}

void test_fingerprint_refusal() {
  const Json here = host_fingerprint();
  for (const char* key : {"nproc", "simd_level", "MCDC_SIMD", "MCDC_THREADS",
                          "compiler", "build_type", "pool_threads"}) {
    check(here.contains(key), std::string("fingerprint holds ") + key);
  }
  std::vector<std::string> why;
  std::vector<std::string> report;
  check(compare_records(record_with(here), record_with(here), why, report),
        "same fingerprint compares");
  check(report.size() == 1, "one line per shared metric");

  Json other = here;
  other["nproc"] = here.at("nproc").as_double() + 1.0;
  check(!compare_records(record_with(here), record_with(other), why, report),
        "different nproc is refused");
  check(!why.empty() && why[0].rfind("nproc", 0) == 0,
        "refusal names the field");

  Json simd = here;
  simd["MCDC_SIMD"] = "scalar-forced-elsewhere";
  check(!compare_records(record_with(here), record_with(simd), why, report),
        "different MCDC_SIMD is refused");

  Json missing = Json::object();
  check(!compare_records(record_with(here), record_with(missing), why, report),
        "a record missing fingerprint fields is refused");
}

std::set<std::string> names_of(const std::vector<MetricSpec>& specs) {
  std::set<std::string> names;
  for (const MetricSpec& spec : specs) names.insert(spec.name);
  return names;
}

void test_metric_names() {
  check(valid_metric_name("serve.ready_us.p99"), "dotted name is valid");
  check(!valid_metric_name(""), "empty name is invalid");
  check(!valid_metric_name(".x"), "leading dot is invalid");
  check(!valid_metric_name("a b"), "space is invalid");
  check(!valid_metric_name("a/b"), "slash is invalid");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters is too long");

  std::set<std::string> all;
  std::size_t total = 0;
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *specs) {
      check(valid_metric_name(spec.name),
            std::string("valid name ") + spec.name);
      all.insert(spec.name);
      ++total;
    }
  }
  check(all.size() == total, "every emitted name is used once");

  std::ifstream file(PERFBENCH_SPEC);
  std::stringstream text;
  text << file.rdbuf();
  const Json spec = Json::parse(text.str());
  const auto listed = [&](const char* key) {
    std::set<std::string> names;
    for (std::size_t i = 0; i < spec.at(key).size(); ++i) {
      const Json& metric = spec.at(key).at(i);
      names.insert(metric.at("name").as_string());
      for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const MetricSpec& m : *specs) {
          if (metric.at("name").as_string() == m.name) {
            check(metric.at("unit").as_string() == m.unit,
                  std::string("unit of ") + m.name + " matches BENCHMARK.json");
          }
        }
      }
    }
    return names;
  };
  check(listed("end_to_end") == names_of(end_to_end_metrics()),
        "end-to-end metrics match BENCHMARK.json");
  check(listed("per_layer") == names_of(per_layer_metrics()),
        "per-layer metrics match BENCHMARK.json");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_histogram_error();
  test_schedule();
  test_fingerprint_refusal();
  test_metric_names();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "ok" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
