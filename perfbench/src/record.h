// What one benchmark run reports: metrics by name with their units, the
// attempted/failed counts of every phase, the host fingerprint, and the
// correctness verdict. The last line of standard output is the run's
// summary; the full record (and, for traced runs, every kept span) goes to
// a JSON file under .bench_out/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.h"

namespace perfbench {

// The metric catalogue. Untraced runs report exactly the end-to-end
// metrics, traced runs exactly the per-layer metrics; BENCHMARK.json lists
// the same names (the tests check both).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// Names are [A-Za-z0-9_.-]+, start with a letter or digit, at most 64
// characters.
bool valid_metric_name(const std::string& name);

struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

class Record {
 public:
  Record(std::string workload, std::uint64_t seed, bool traced);

  void metric(const std::string& name, double value);
  // Adds a phase's counts; a phase with failures marks the run incorrect.
  void phase(const Phase& phase);
  // A correctness check that failed outside any counted operation.
  void fail(const std::string& why);
  // A human-readable line, printed before the summary.
  void note(const std::string& line);

  bool correct() const;
  // Prints the notes and the summary line; writes the full record to
  // `path` (with `extra` under "trace" when given). Returns the exit code.
  int finish(const std::string& path, const mcdc::api::Json* extra);

  // The record as JSON (metrics, phases, fingerprint, verdict).
  mcdc::api::Json to_json() const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  bool traced_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<Phase> phases_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

// The host and build the numbers come from: nproc, the pool width, the
// resolved SIMD dispatch level, the MCDC_SIMD and MCDC_THREADS settings,
// the compiler and the build type.
mcdc::api::Json host_fingerprint();

// Compares two records. Refuses (returns false, reasons in `why`) when the
// fingerprints differ in any field; otherwise fills `report` with one line
// per metric present in both.
bool compare_records(const mcdc::api::Json& a, const mcdc::api::Json& b,
                     std::vector<std::string>& why,
                     std::vector<std::string>& report);

}  // namespace perfbench
