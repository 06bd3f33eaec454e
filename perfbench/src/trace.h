// Spans recorded from the benchmark's own code around calls into the
// library's layers. A span has a name (the layer function), a start, an
// end, a parent and a request id shared by every span of one request.
// Spans stay in memory (up to a fixed number per thread; aggregates cover
// every span) and are written out when the benchmark ends.
//
// Self time is a span's duration minus the time its child spans cover.
// Children are tracked per thread with a stack of open spans, so nested
// ScopedSpans on one thread attribute exactly; spans that cross threads
// (a request's due-to-completion span) are recorded with record() and name
// their parent explicitly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/json.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  // Spans kept verbatim per thread; later spans only feed the totals.
  static constexpr std::size_t kKeepPerThread = 2048;

  // Starts a span on the calling thread, child of the innermost open span.
  std::uint64_t open(const char* name, std::uint64_t request = 0);
  // Ends the innermost open span on the calling thread.
  void close();
  // The first of `count` fresh request ids.
  std::uint64_t new_requests(std::uint64_t count) {
    return requests_.fetch_add(count, std::memory_order_relaxed) + 1;
  }
  // A fresh span id, for a cross-thread span whose children are recorded
  // before it.
  std::uint64_t new_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  // Records a finished span from explicit times (cross-thread spans);
  // `id` 0 allocates one. Returns the span's id.
  std::uint64_t record(const char* name, std::uint64_t request,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns, std::int64_t child_ns = 0,
                       std::uint64_t id = 0);

  std::map<std::string, SpanTotals> totals() const;
  std::uint64_t spans_recorded() const;
  // {"spans": [...kept spans...], "totals": {name: {count, total_s, self_s}}}
  mcdc::api::Json to_json() const;

 private:
  struct Open {
    Span span;
    std::int64_t child_ns = 0;
  };
  struct ThreadLog {
    std::vector<Open> stack;
    std::vector<Span> kept;
    // Keyed by the name literal's address: a handful of names per thread,
    // so a linear scan beats hashing; totals() merges by name text.
    std::vector<std::pair<const char*, SpanTotals>> totals;
    std::uint64_t recorded = 0;
  };
  ThreadLog& log();
  void finish(ThreadLog& log, const Span& span, std::int64_t child_ns);

  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> requests_{0};
  // Guards the list of per-thread logs; each log is written only by its
  // thread, and read after the traced threads have been joined.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
