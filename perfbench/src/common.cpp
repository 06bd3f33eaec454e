#include "common.h"

#include <algorithm>
#include <cstdio>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/rng.h"

namespace perfbench {

using mcdc::data::Value;

std::vector<Value> gather_rows(const mcdc::data::Dataset& ds) {
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);
  return rows;
}

std::shared_ptr<const mcdc::api::Model> random_model(
    const mcdc::data::Dataset& ds, int k, std::uint64_t seed) {
  mcdc::Rng rng(seed);
  std::vector<int> assignment(ds.num_objects());
  for (int& label : assignment) {
    label = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return std::make_shared<const mcdc::api::Model>(mcdc::api::Model::from_fit(
      "perfbench", ds, assignment, k, {}, {}, /*refine=*/false));
}

std::string with_values(std::string line, const std::vector<double>& values) {
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    line += buf;
  }
  return line;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double OpenLoopResult::window_median_p99_us() const {
  return median(window_p99_us);
}

bool OpenLoopResult::meets_slo(double slo_us) const {
  const double slo_arrivals = static_cast<double>(rate) * slo_us / 1e6;
  return phase.failed == 0 && window_median_p99_us() <= slo_us &&
         median(window_backlog) <= std::max(1.0, slo_arrivals);
}

namespace {

// Generator -> collector hand-off: a single-producer single-consumer ring.
// The collector sleeps on the tail counter while the ring is empty.
struct Sent {
  std::int64_t due_ns = 0;
  std::int64_t call_ns = 0;    // submit() entered
  std::int64_t return_ns = 0;  // submit() returned
  std::size_t row = 0;
  std::uint64_t request = 0;
  bool submitted = false;
  std::future<int> answer;
};

class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity) {}
  void push(Sent&& sent) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    while (tail - head_.load(std::memory_order_acquire) >= slots_.size()) {
      std::this_thread::yield();
    }
    slots_[tail % slots_.size()] = std::move(sent);
    tail_.store(tail + 1, std::memory_order_release);
    tail_.notify_one();
  }
  Sent pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t tail = tail_.load(std::memory_order_acquire);
    while (tail == head) {
      tail_.wait(tail, std::memory_order_acquire);
      tail = tail_.load(std::memory_order_acquire);
    }
    Sent sent = std::move(slots_[head % slots_.size()]);
    head_.store(head + 1, std::memory_order_release);
    return sent;
  }
  std::uint64_t popped() const { return head_.load(std::memory_order_acquire); }

 private:
  std::vector<Sent> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

// Sleeps (never spins) until the due time: a spinning generator would
// take a CPU from the threads it measures. Requests that fall due during
// one wake-up go out together, each still timed from its own due time;
// the lateness shows in the generator-lag histogram.
void wait_until(std::int64_t due_ns) {
  const std::int64_t left = due_ns - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

// Linux lets a thread's sleeps overshoot by its timer slack, 50 us by
// default; the generator asks for 1 us.
void tighten_timer_slack() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

constexpr std::int64_t kWindowNs = 100'000'000;

}  // namespace

OpenLoopResult open_loop(std::uint64_t rate, double seconds,
                         std::size_t num_rows, const SubmitFn& submit,
                         const CheckFn& check, Tracer* tracer,
                         const std::atomic<bool>* stop, const char* name) {
  OpenLoopResult out;
  out.rate = rate;
  out.phase.name = name;
  const auto total = static_cast<std::uint64_t>(
      std::max(1.0, seconds * static_cast<double>(rate)));
  Ring ring(1 << 16);
  const std::int64_t start = now_ns() + 1'000'000;
  const std::uint64_t request_base =
      tracer != nullptr ? tracer->new_requests(total) - 1 : 0;
  std::int64_t last_answer_ns = start;

  std::thread collector([&] {
    LatencyHistogram window;  // the current 100 ms window of due times
    std::int64_t window_end = kWindowNs;
    for (;;) {
      Sent sent = ring.pop();
      if (!sent.submitted && sent.row == static_cast<std::size_t>(-1)) break;
      int label = -2;
      bool ok = sent.submitted;
      if (ok) {
        try {
          label = sent.answer.get();
        } catch (...) {
          ok = false;
        }
      }
      const std::int64_t done = now_ns();
      last_answer_ns = done;
      ok = ok && check(sent.row, label);
      ++out.phase.attempted;
      if (ok) ++out.phase.succeeded;
      else ++out.phase.failed;
      out.latency.record_ns(done - sent.due_ns);
      out.ready.record_ns(done - sent.return_ns);
      if (sent.due_ns - start >= window_end) {
        out.window_p99_us.push_back(window.percentile_us(99.0));
        window = LatencyHistogram();
        window_end += kWindowNs;
      }
      window.record_ns(done - sent.due_ns);
      if (tracer != nullptr) {
        const std::uint64_t root = tracer->new_id();
        tracer->record("serve.gen_lag", sent.request, root, sent.due_ns,
                       sent.call_ns);
        tracer->record("ModelServer::submit", sent.request, root, sent.call_ns,
                       sent.return_ns);
        tracer->record("serve.ready", sent.request, root, sent.return_ns, done);
        tracer->record("serve.request", sent.request, 0, sent.due_ns, done,
                       done - sent.due_ns, root);
      }
    }
  });

  tighten_timer_slack();
  std::int64_t next_window_ns = 0;
  std::uint64_t i = 0;
  for (; i < total; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    Sent sent;
    sent.due_ns = start + due_offset_ns(i, rate);
    sent.row = static_cast<std::size_t>(i % num_rows);
    sent.request = request_base + i + 1;
    if (sent.due_ns - start >= next_window_ns) {
      out.window_backlog.push_back(static_cast<double>(i - ring.popped()));
      next_window_ns += kWindowNs;
    }
    wait_until(sent.due_ns);
    sent.call_ns = now_ns();
    try {
      sent.answer = submit(sent.row);
      sent.submitted = true;
    } catch (...) {
      sent.submitted = false;
    }
    sent.return_ns = now_ns();
    out.gen_lag.record_ns(sent.call_ns - sent.due_ns);
    ring.push(std::move(sent));
  }
  Sent end_marker;
  end_marker.row = static_cast<std::size_t>(-1);
  ring.push(std::move(end_marker));
  collector.join();
  const double span_s = static_cast<double>(last_answer_ns - start) / 1e9;
  out.achieved_rps = span_s > 0.0 ? static_cast<double>(i) / span_s : 0.0;
  return out;
}

}  // namespace perfbench
