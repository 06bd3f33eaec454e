#include "core/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace mcdc::core::simd {

namespace {

// ---- Portable scalar kernels -------------------------------------------
// These loops are the semantics: every vector implementation must produce
// bit-identical outputs (same elementwise operations, same order). They
// are also what the compiler auto-vectorizes on non-AVX2 builds, which is
// safe because elementwise operations have no accumulation order to break.

void acc_f64_scalar(double* out, const double* p, std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) out[l] += p[l];
}

void acc_f32_scalar(double* out, const float* p, std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) out[l] += static_cast<double>(p[l]);
}

void div_f64_scalar(double* out, double denom, std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) out[l] /= denom;
}

void quot_f64_scalar(double* out, const double* c, const double* nn,
                     std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) {
    out[l] += nn[l] > 0.0 ? c[l] / nn[l] : 0.0;
  }
}

int argmax_scalar(const double* s, std::size_t k) {
  int best = 0;
  double best_score = -1.0;
  for (std::size_t l = 0; l < k; ++l) {
    if (s[l] > best_score) {
      best_score = s[l];
      best = static_cast<int>(l);
    }
  }
  return best;
}

// Whole-row frozen score. Per lane: one accumulator, contributions in r
// order, one division — the exact op sequence of the per-row
// acc_f64/div_f64 path, so scores and labels are byte-identical to it.
template <class T>
void score_row_scalar(double* out, const T* bank, const std::size_t* cells,
                      std::size_t d, double denom, std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) {
    double s = 0.0;
    for (std::size_t r = 0; r < d; ++r) {
      if (cells[r] == kNoCell) continue;
      s += static_cast<double>(bank[cells[r] + l]);
    }
    out[l] = s / denom;
  }
}

constexpr Kernels kScalarTable = {
    acc_f64_scalar,  acc_f32_scalar, div_f64_scalar,
    quot_f64_scalar, argmax_scalar,  score_row_scalar<double>,
    score_row_scalar<float>,
};

// Level requested by MCDC_SIMD (auto when unset/unrecognised).
enum class Request { kAuto, kScalar, kAvx2 };

Request env_request() {
  const char* env = std::getenv("MCDC_SIMD");
  if (env == nullptr) return Request::kAuto;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return Request::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) return Request::kAvx2;
  return Request::kAuto;
}

Level resolve(Request request) {
  switch (request) {
    case Request::kScalar:
      return Level::kScalar;
    case Request::kAvx2:
    case Request::kAuto:
      return avx2_supported() ? Level::kAvx2 : Level::kScalar;
  }
  return Level::kScalar;
}

const Kernels* table_for(Level level) {
  if (level == Level::kAvx2) {
    const Kernels* avx2 = detail_avx2_kernels();
    if (avx2 != nullptr) return avx2;
  }
  return &kScalarTable;
}

struct Dispatch {
  std::atomic<Level> level;
  std::atomic<const Kernels*> table;
  Dispatch() {
    const Level resolved = resolve(env_request());
    level.store(resolved, std::memory_order_relaxed);
    table.store(table_for(resolved), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;  // resolved once, before first kernel use
  return d;
}

}  // namespace

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool avx2_supported() { return detail_avx2_kernels() != nullptr; }

Level level() {
  return dispatch().level.load(std::memory_order_relaxed);
}

Level set_level(Level level) {
  Dispatch& d = dispatch();
  const Level previous = d.level.load(std::memory_order_relaxed);
  const Level next =
      (level == Level::kAvx2 && !avx2_supported()) ? Level::kScalar : level;
  d.level.store(next, std::memory_order_relaxed);
  d.table.store(table_for(next), std::memory_order_relaxed);
  return previous;
}

const Kernels& kernels() {
  return *dispatch().table.load(std::memory_order_relaxed);
}

const Kernels& scalar_kernels() { return kScalarTable; }

}  // namespace mcdc::core::simd
