// AVX2 implementations of the core/simd.h kernel table.
//
// This translation unit is the only one compiled with -mavx2 (plus
// -ffp-contract=off so GCC can never contract a multiply and an add into
// an FMA — the scalar path rounds the product before the add, and
// byte-identity with it is the whole contract). Everything here is
// elementwise over the cluster dimension: lane l of a vector only ever
// combines slot-l values, so per-feature accumulation order matches the
// scalar loop exactly and no horizontal reduction touches a comparator.
//
// Intrinsics are confined to simd-prefixed files by lint rule D6.
#include "core/simd.h"

#if defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace mcdc::core::simd {

namespace {

void acc_f64_avx2(double* out, const double* p, std::size_t k) {
  std::size_t l = 0;
  for (; l + 4 <= k; l += 4) {
    const __m256d acc = _mm256_loadu_pd(out + l);
    const __m256d val = _mm256_loadu_pd(p + l);
    _mm256_storeu_pd(out + l, _mm256_add_pd(acc, val));
  }
  for (; l < k; ++l) out[l] += p[l];
}

void acc_f32_avx2(double* out, const float* p, std::size_t k) {
  std::size_t l = 0;
  for (; l + 4 <= k; l += 4) {
    const __m256d acc = _mm256_loadu_pd(out + l);
    const __m256d val =
        _mm256_cvtps_pd(_mm_loadu_ps(p + l));  // exact f32 -> f64 widen
    _mm256_storeu_pd(out + l, _mm256_add_pd(acc, val));
  }
  for (; l < k; ++l) out[l] += static_cast<double>(p[l]);
}

void div_f64_avx2(double* out, double denom, std::size_t k) {
  const __m256d vden = _mm256_set1_pd(denom);
  std::size_t l = 0;
  for (; l + 4 <= k; l += 4) {
    // A true vdivpd — a reciprocal multiply would round differently.
    _mm256_storeu_pd(out + l, _mm256_div_pd(_mm256_loadu_pd(out + l), vden));
  }
  for (; l < k; ++l) out[l] /= denom;
}

void quot_f64_avx2(double* out, const double* c, const double* nn,
                   std::size_t k) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t l = 0;
  for (; l + 4 <= k; l += 4) {
    const __m256d vnn = _mm256_loadu_pd(nn + l);
    const __m256d mask = _mm256_cmp_pd(vnn, zero, _CMP_GT_OQ);
    // Divide by a safe denominator everywhere, then zero the masked-off
    // lanes: lane-for-lane the same IEEE division the scalar branch does.
    const __m256d safe = _mm256_blendv_pd(one, vnn, mask);
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(c + l), safe);
    const __m256d add = _mm256_blendv_pd(zero, q, mask);
    _mm256_storeu_pd(out + l, _mm256_add_pd(_mm256_loadu_pd(out + l), add));
  }
  for (; l < k; ++l) out[l] += nn[l] > 0.0 ? c[l] / nn[l] : 0.0;
}

int argmax_avx2(const double* s, std::size_t k) {
  int best = 0;
  double best_score = -1.0;
  std::size_t l = 0;
  if (k >= 8) {
    // Per-lane running (max, first-index) with a strict-> blend: lane j
    // ends holding the max of its subsequence {j, j+4, ...} and the
    // *lowest* index attaining it (later equal values fail the strict
    // compare). Indices ride along as doubles — exact up to 2^53.
    __m256d vmax = _mm256_set1_pd(-1.0);
    __m256d vidx = _mm256_setzero_pd();
    __m256d cur = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    const __m256d step = _mm256_set1_pd(4.0);
    for (; l + 4 <= k; l += 4) {
      const __m256d v = _mm256_loadu_pd(s + l);
      const __m256d gt = _mm256_cmp_pd(v, vmax, _CMP_GT_OQ);
      vmax = _mm256_blendv_pd(vmax, v, gt);
      vidx = _mm256_blendv_pd(vidx, cur, gt);
      cur = _mm256_add_pd(cur, step);
    }
    alignas(32) double lane_max[4];
    alignas(32) double lane_idx[4];
    _mm256_store_pd(lane_max, vmax);
    _mm256_store_pd(lane_idx, vidx);
    // Cross-lane reduction by (greater value, then lower index) — lower
    // *index*, not lower lane, reproduces the scalar first-max scan.
    best_score = lane_max[0];
    double best_idx = lane_idx[0];
    for (int j = 1; j < 4; ++j) {
      if (lane_max[j] > best_score ||
          (lane_max[j] == best_score && lane_idx[j] < best_idx)) {
        best_score = lane_max[j];
        best_idx = lane_idx[j];
      }
    }
    best = static_cast<int>(best_idx);
  }
  // Scalar tail: every tail index is higher than any vector index, so the
  // strict > alone preserves the lowest-id tie-break.
  for (; l < k; ++l) {
    if (s[l] > best_score) {
      best_score = s[l];
      best = static_cast<int>(l);
    }
  }
  return best;
}

// Four doubles from a f64 bank, or four floats widened exactly to double.
inline __m256d load4(const double* p) { return _mm256_loadu_pd(p); }
inline __m256d load4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

// Whole-row frozen score, register-blocked: eight ymm accumulators (a
// 32-cluster block) stay live across the entire feature loop, so the only
// memory traffic is bank loads plus one final divide-and-store — no
// intermediate score spills and no per-feature call overhead. Per lane
// the op sequence is still accumulator = 0, += contribution per feature
// in r order, one division: byte-identical to the per-row acc/div path.
template <class T>
void score_row_avx2(double* out, const T* bank, const std::size_t* cells,
                    std::size_t d, double denom, std::size_t k) {
  const __m256d vden = _mm256_set1_pd(denom);
  std::size_t l = 0;
  for (; l + 32 <= k; l += 32) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd();
    __m256d a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd();
    __m256d a7 = _mm256_setzero_pd();
    for (std::size_t r = 0; r < d; ++r) {
      if (cells[r] == kNoCell) continue;
      const T* p = bank + cells[r] + l;
      a0 = _mm256_add_pd(a0, load4(p + 0));
      a1 = _mm256_add_pd(a1, load4(p + 4));
      a2 = _mm256_add_pd(a2, load4(p + 8));
      a3 = _mm256_add_pd(a3, load4(p + 12));
      a4 = _mm256_add_pd(a4, load4(p + 16));
      a5 = _mm256_add_pd(a5, load4(p + 20));
      a6 = _mm256_add_pd(a6, load4(p + 24));
      a7 = _mm256_add_pd(a7, load4(p + 28));
    }
    _mm256_storeu_pd(out + l + 0, _mm256_div_pd(a0, vden));
    _mm256_storeu_pd(out + l + 4, _mm256_div_pd(a1, vden));
    _mm256_storeu_pd(out + l + 8, _mm256_div_pd(a2, vden));
    _mm256_storeu_pd(out + l + 12, _mm256_div_pd(a3, vden));
    _mm256_storeu_pd(out + l + 16, _mm256_div_pd(a4, vden));
    _mm256_storeu_pd(out + l + 20, _mm256_div_pd(a5, vden));
    _mm256_storeu_pd(out + l + 24, _mm256_div_pd(a6, vden));
    _mm256_storeu_pd(out + l + 28, _mm256_div_pd(a7, vden));
  }
  // 4-wide then scalar tails. Lanes are independent, so regrouping them
  // does not change any lane's op sequence.
  for (; l + 4 <= k; l += 4) {
    __m256d a = _mm256_setzero_pd();
    for (std::size_t r = 0; r < d; ++r) {
      if (cells[r] == kNoCell) continue;
      a = _mm256_add_pd(a, load4(bank + cells[r] + l));
    }
    _mm256_storeu_pd(out + l, _mm256_div_pd(a, vden));
  }
  for (; l < k; ++l) {
    double s = 0.0;
    for (std::size_t r = 0; r < d; ++r) {
      if (cells[r] == kNoCell) continue;
      s += static_cast<double>(bank[cells[r] + l]);
    }
    out[l] = s / denom;
  }
}

constexpr Kernels kAvx2Table = {
    acc_f64_avx2,  acc_f32_avx2, div_f64_avx2,
    quot_f64_avx2, argmax_avx2,  score_row_avx2<double>,
    score_row_avx2<float>,
};

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace

const Kernels* detail_avx2_kernels() {
  return cpu_has_avx2() ? &kAvx2Table : nullptr;
}

}  // namespace mcdc::core::simd

#else  // non-x86 target or compiler without AVX2 intrinsics

namespace mcdc::core::simd {

const Kernels* detail_avx2_kernels() { return nullptr; }

}  // namespace mcdc::core::simd

#endif
