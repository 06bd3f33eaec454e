// Wall-clock timing helpers used by the scalability benchmarks (Fig. 6).
#pragma once

#include <chrono>

namespace mcdc {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

  // Seconds from this timer's start to `later`'s, without reading the
  // clock: one Timer taken as "now" measures any number of stamps.
  double seconds_until(const Timer& later) const {
    return std::chrono::duration<double>(later.start_ - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Times a callable and returns seconds spent.
template <typename F>
double time_seconds(F&& f) {
  Timer t;
  f();
  return t.elapsed_seconds();
}

}  // namespace mcdc
