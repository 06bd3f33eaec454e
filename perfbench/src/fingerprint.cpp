#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/thread_pool.h"
#include "core/simd.h"
#include "record.h"

namespace perfbench {

using mcdc::api::Json;

namespace {

std::string env_or_unset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string("unset") : std::string(value);
}

}  // namespace

Json host_fingerprint() {
  Json fp = Json::object();
  fp["nproc"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  fp["pool_threads"] = mcdc::global_pool().size();
  fp["simd_level"] = mcdc::core::simd::level_name(mcdc::core::simd::level());
  fp["MCDC_SIMD"] = env_or_unset("MCDC_SIMD");
  fp["MCDC_THREADS"] = env_or_unset("MCDC_THREADS");
  fp["compiler"] = std::string(__VERSION__);
  fp["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  return fp;
}

bool compare_records(const Json& a, const Json& b,
                     std::vector<std::string>& why,
                     std::vector<std::string>& report) {
  why.clear();
  report.clear();
  if (!a.contains("fingerprint") || !b.contains("fingerprint")) {
    why.push_back("a record carries no fingerprint");
    return false;
  }
  const Json& fa = a.at("fingerprint");
  const Json& fb = b.at("fingerprint");
  for (const auto& [key, value] : fa.items()) {
    if (!fb.contains(key)) {
      why.push_back(key + ": missing from the second record");
    } else if (fb.at(key).dump() != value.dump()) {
      why.push_back(key + ": " + value.dump() + " vs " + fb.at(key).dump());
    }
  }
  for (const auto& [key, value] : fb.items()) {
    if (!fa.contains(key)) {
      why.push_back(key + ": missing from the first record");
    }
  }
  if (a.at("workload").as_string() != b.at("workload").as_string() ||
      a.at("traced").as_bool() != b.at("traced").as_bool()) {
    why.push_back("records of different workloads or run kinds");
  }
  if (!why.empty()) return false;
  const Json& ma = a.at("metrics");
  const Json& mb = b.at("metrics");
  for (const auto& [name, va] : ma.items()) {
    if (!mb.contains(name)) continue;
    const double x = va.as_double();
    const double y = mb.at(name).as_double();
    char line[256];
    std::snprintf(line, sizeof line, "%-36s %14.6g %14.6g %+8.2f%%",
                  name.c_str(), x, y,
                  x != 0.0 ? 100.0 * (y - x) / std::fabs(x) : 0.0);
    report.emplace_back(line);
  }
  return true;
}

}  // namespace perfbench
