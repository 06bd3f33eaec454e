// Shared pieces of the workloads: options, inputs, and the closed- and
// open-loop load generators.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/model.h"
#include "data/dataset.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "record.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// Untraced runs: each reports the end-to-end metrics of its workload.
void run_fit(const Options& options, Record& record);
void run_bulk(const Options& options, Record& record);
void run_serve(const Options& options, Record& record);
void run_online(const Options& options, Record& record);

// Traced sections: each reports its layers' per-layer metrics. A traced
// run executes all four, so every per-layer metric is measured in it.
void trace_fit(const Options& options, Record& record, Tracer& tracer);
void trace_bulk(const Options& options, Record& record, Tracer& tracer,
                double seconds);
void trace_serve(const Options& options, Record& record, Tracer& tracer,
                 double seconds);
void trace_online(const Options& options, Record& record, Tracer& tracer);

// Rows of `ds` packed row-major in its own encoding.
std::vector<mcdc::data::Value> gather_rows(const mcdc::data::Dataset& ds);

// A k-cluster model of `ds` from a seeded random partition: a server only
// needs frozen histograms, and a random partition gives every cluster mass.
std::shared_ptr<const mcdc::api::Model> random_model(
    const mcdc::data::Dataset& ds, int k, std::uint64_t seed);

// `values` appended to a note line, space-separated, 6 significant digits.
std::string with_values(std::string line, const std::vector<double>& values);

// Input seeds derived from the run's seed, one stream per use.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Calls `call` (which processes `items` items) until `seconds` have passed
// and at least two calls ran; returns the median items per second.
template <class F>
double median_rate(double items, double seconds, F&& call) {
  std::vector<double> rates;
  const std::int64_t start = now_ns();
  while (rates.size() < 2 ||
         static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    const std::int64_t t0 = now_ns();
    call();
    rates.push_back(items / (static_cast<double>(now_ns() - t0) / 1e9));
  }
  return median(rates);
}

// --- closed loop ------------------------------------------------------------

struct ClosedLoopResult {
  double rps = 0.0;                // median over rounds
  std::vector<double> round_rps;
  Phase phase;
  LatencyHistogram submit_call;    // time inside submit() (traced only)
};

// `producers` threads each keep `in_flight` requests outstanding through
// server.submit (ModelServer or ServingCluster), cycling over `rows`;
// every answer is checked against reference[row]. Runs `rounds` rounds of
// `round_seconds` and reports the median round's rate. With a tracer, each
// submit() and each future wait is a span of its request.
template <class Server>
ClosedLoopResult closed_loop(Server& server,
                             const std::vector<mcdc::data::Value>& rows,
                             std::size_t d, const std::vector<int>& reference,
                             int producers, std::size_t in_flight, int rounds,
                             double round_seconds, Tracer* tracer,
                             const char* name);

// --- open loop --------------------------------------------------------------

struct OpenLoopResult {
  std::uint64_t rate = 0;
  Phase phase;
  LatencyHistogram latency;      // due -> answer observed
  LatencyHistogram gen_lag;      // due -> submit() entered
  LatencyHistogram ready;        // submit() returned -> answer observed
  // p99 of each full 100 ms window of due times, in order: a host stall
  // spoils the windows it hits, not the whole run.
  std::vector<double> window_p99_us;
  // Requests sent but not yet answered, sampled as each window's first
  // request goes out.
  std::vector<double> window_backlog;
  double achieved_rps = 0.0;
  // The median window's p99.
  double window_median_p99_us() const;
  // The SLO test of the rate ladder, per window so one stall does not
  // decide it: the median window's p99 (timed from due, so a late
  // generator counts) within `slo_us`, and the median window's backlog
  // within one SLO's worth of arrivals (no growing queue).
  bool meets_slo(double slo_us) const;
};

using SubmitFn = std::function<std::future<int>(std::size_t row)>;
using CheckFn = std::function<bool(std::size_t row, int label)>;

// One generator thread sends request i at start + i/rate (absolute, never
// derived from measured capacity) for `seconds` or until *stop is set; one
// collector thread redeems the answers in order and stamps each from its
// due time, so a stall counts against every request it delays.
OpenLoopResult open_loop(std::uint64_t rate, double seconds,
                         std::size_t num_rows, const SubmitFn& submit,
                         const CheckFn& check, Tracer* tracer,
                         const std::atomic<bool>* stop, const char* name);

// --- closed loop, implementation ---------------------------------------------

inline const char* submit_span(const mcdc::serve::ModelServer&) {
  return "ModelServer::submit";
}
inline const char* submit_span(const mcdc::serve::ServingCluster&) {
  return "ServingCluster::submit";
}

template <class Server>
ClosedLoopResult closed_loop(Server& server,
                             const std::vector<mcdc::data::Value>& rows,
                             std::size_t d, const std::vector<int>& reference,
                             int producers, std::size_t in_flight, int rounds,
                             double round_seconds, Tracer* tracer,
                             const char* name) {
  ClosedLoopResult out;
  out.phase.name = name;
  const std::size_t n = reference.size();
  const auto p = static_cast<std::size_t>(producers);
  std::size_t cursor = 0;  // rows continue across rounds
  for (int round = 0; round < rounds; ++round) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> answered(p, 0);
    std::vector<std::uint64_t> wrong(p, 0);
    std::vector<LatencyHistogram> calls(tracer != nullptr ? p : 0);
    std::vector<std::thread> threads;
    threads.reserve(p);
    const std::int64_t start = now_ns();
    for (std::size_t t = 0; t < p; ++t) {
      threads.emplace_back([&, t] {
        struct Pending {
          std::size_t row;
          std::uint64_t request;
          std::future<int> answer;
        };
        std::vector<Pending> window;
        window.reserve(in_flight);
        std::uint64_t count = 0;
        std::uint64_t bad = 0;
        // Request ids for this producer's round (a block of 2^32).
        const std::uint64_t base =
            tracer != nullptr ? tracer->new_requests(1ULL << 32) : 0;
        const auto drain = [&] {
          for (Pending& pending : window) {
            int label = -2;
            try {
              ScopedSpan span(tracer, "future.get", pending.request);
              label = pending.answer.get();
            } catch (...) {
            }
            if (label != reference[pending.row]) ++bad;
            ++count;
          }
          window.clear();
        };
        std::size_t i = cursor + t;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t row = i % n;
          i += p;
          const std::uint64_t request = base + count + window.size();
          try {
            if (tracer != nullptr) {
              const std::int64_t t0 = now_ns();
              {
                ScopedSpan span(tracer, submit_span(server), request);
                window.push_back(
                    {row, request, server.submit(rows.data() + row * d)});
              }
              calls[t].record_ns(now_ns() - t0);
            } else {
              window.push_back(
                  {row, request, server.submit(rows.data() + row * d)});
            }
          } catch (...) {
            ++bad;
            ++count;
          }
          if (window.size() >= in_flight) drain();
        }
        drain();
        answered[t] = count;
        wrong[t] = bad;
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(round_seconds));
    stop.store(true);
    for (auto& thread : threads) thread.join();
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < p; ++t) {
      total += answered[t];
      out.phase.attempted += answered[t];
      out.phase.failed += wrong[t];
      out.phase.succeeded += answered[t] - wrong[t];
      if (tracer != nullptr) out.submit_call.merge(calls[t]);
    }
    out.round_rps.push_back(static_cast<double>(total) / elapsed);
    cursor += static_cast<std::size_t>(total);
  }
  out.rps = median(out.round_rps);
  return out;
}

}  // namespace perfbench
