// perfbench — the repository benchmark. See ../README.md.
//
//   perfbench --workload fit|bulk|serve|online --seed N --seconds S --trace 0|1
//             [--out DIR]
//   perfbench compare RECORD_A.json RECORD_B.json
//
// An untraced run (--trace 0) measures the named workload and reports its
// end-to-end metrics. A traced run (--trace 1) runs the traced section of
// every workload and reports every per-layer metric, with spans recorded
// around the calls into core, api, metrics and serve. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the full record goes to DIR (default .bench_out).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;
using mcdc::api::Json;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fit|bulk|serve|online --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench compare RECORD_A.json RECORD_B.json\n");
  return 2;
}

Json read_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << file.rdbuf();
  return Json::parse(text.str());
}

// Exit 0: comparable (metric deltas printed); 3: refused.
int compare(const std::string& a_path, const std::string& b_path) {
  std::vector<std::string> why;
  std::vector<std::string> report;
  if (!compare_records(read_json(a_path), read_json(b_path), why, report)) {
    std::printf("refused: the records come from different hosts or builds\n");
    for (const std::string& line : why) std::printf("  %s\n", line.c_str());
    return 3;
  }
  for (const std::string& line : report) std::printf("%s\n", line.c_str());
  return 0;
}

int run(const Options& options) {
  Record record(options.workload, options.seed, options.trace);
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace.json" : ".json");
  if (!options.trace) {
    if (options.workload == "fit") run_fit(options, record);
    else if (options.workload == "bulk") run_bulk(options, record);
    else if (options.workload == "serve") run_serve(options, record);
    else run_online(options, record);
    return record.finish(path, nullptr);
  }
  Tracer tracer;
  trace_fit(options, record, tracer);
  trace_bulk(options, record, tracer, options.seconds * 0.2);
  trace_serve(options, record, tracer, options.seconds * 0.6);
  trace_online(options, record, tracer);
  const Json spans = tracer.to_json();
  return record.finish(path, &spans);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 4 && std::string(argv[1]) == "compare") {
      return compare(argv[2], argv[3]);
    }
    Options options;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--out") {
        options.out_dir = value;
      } else {
        return usage();
      }
    }
    if (argc % 2 == 0 || !have_workload || options.seconds <= 0.0 ||
        (options.workload != "fit" && options.workload != "bulk" &&
         options.workload != "serve" && options.workload != "online")) {
      return usage();
    }
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
