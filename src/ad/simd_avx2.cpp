// AVX2+FMA kernels for the DGR_SIMD build. This TU alone is compiled with
// -mavx2 -mfma (see src/CMakeLists.txt) so the scalar library codegen is
// untouched; everything here is reached only through simd::active().

#include "ad/simd.hpp"

#ifdef DGR_SIMD

#include <immintrin.h>

#include <atomic>
#include <cmath>

namespace dgr::ad::simd {
namespace {

std::atomic<bool> g_enabled{true};

// Cephes-style single-precision exp (the classic avx_mathfun expansion):
// range-reduce by log2(e), degree-5 polynomial, scale by 2^n. ~1 ulp off
// libm expf — the source of the SIMD tolerance caveat.
inline __m256 exp256_ps(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 exp_lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(x, exp_hi);
  x = _mm256_max_ps(x, exp_lo);

  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 xx = _mm256_mul_ps(x, x);
  __m256 y = p0;
  y = _mm256_fmadd_ps(y, x, p1);
  y = _mm256_fmadd_ps(y, x, p2);
  y = _mm256_fmadd_ps(y, x, p3);
  y = _mm256_fmadd_ps(y, x, p4);
  y = _mm256_fmadd_ps(y, x, p5);
  y = _mm256_fmadd_ps(y, xx, x);
  y = _mm256_add_ps(y, one);

  const __m256i n = _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(0x7f));
  const __m256 pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(n, 23));
  return _mm256_mul_ps(y, pow2n);
}

/// av_vec = f(v) for one lane-vector; mirrors act_forward (ad/activation.hpp).
inline __m256 act_forward_ps(Activation act, float alpha, __m256 v) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  switch (act) {
    case Activation::kReLU:
      return _mm256_max_ps(v, zero);
    case Activation::kSigmoid: {
      const __m256 e = exp256_ps(_mm256_sub_ps(zero, v));
      return _mm256_div_ps(one, _mm256_add_ps(one, e));
    }
    case Activation::kLeakyReLU: {
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(alpha * 0.01f), v);
      return _mm256_blendv_ps(neg, v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
    }
    case Activation::kExp:
      return exp256_ps(_mm256_min_ps(v, _mm256_set1_ps(30.0f)));
    case Activation::kCELU: {
      const __m256 a = _mm256_set1_ps(alpha);
      const __m256 scaled =
          _mm256_div_ps(_mm256_min_ps(v, _mm256_set1_ps(30.0f)), a);
      const __m256 neg = _mm256_mul_ps(a, _mm256_sub_ps(exp256_ps(scaled), one));
      return _mm256_blendv_ps(neg, v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
    }
  }
  return zero;
}

/// f'(v) using the forward output y; mirrors act_derivative (ad/activation.hpp)
/// (computed in float here — covered by the SIMD tolerance contract).
inline __m256 act_derivative_ps(Activation act, float alpha, __m256 v, __m256 y) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
  switch (act) {
    case Activation::kReLU:
      return _mm256_and_ps(one, pos);
    case Activation::kSigmoid:
      return _mm256_mul_ps(y, _mm256_sub_ps(one, y));
    case Activation::kLeakyReLU:
      return _mm256_blendv_ps(_mm256_set1_ps(alpha * 0.01f), one, pos);
    case Activation::kExp:
      return _mm256_and_ps(y, _mm256_cmp_ps(v, _mm256_set1_ps(30.0f), _CMP_LT_OQ));
    case Activation::kCELU: {
      const __m256 scaled = _mm256_div_ps(_mm256_min_ps(v, _mm256_set1_ps(30.0f)),
                                          _mm256_set1_ps(alpha));
      return _mm256_blendv_ps(exp256_ps(scaled), one, pos);
    }
  }
  return zero;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace {
/// exp256_ps on the 8-lane block [base, base+8) of which only [lo, hi) is
/// in-range: out-of-range lanes are padded with zero in a temp (exp is
/// lane-independent, so in-range lanes get the exact value a full-vector
/// evaluation would give) and only in-range lanes are written back.
inline void exp_edge_block(float* y, std::size_t base, std::size_t lo, std::size_t hi) {
  alignas(32) float tmp[8] = {};
  for (std::size_t k = lo; k < hi; ++k) tmp[k - base] = y[k];
  _mm256_store_ps(tmp, exp256_ps(_mm256_load_ps(tmp)));
  for (std::size_t k = lo; k < hi; ++k) y[k] = tmp[k - base];
}
}  // namespace

void exp_sweep(float* y, std::size_t lo, std::size_t hi) {
  // The lane grid is anchored to ABSOLUTE multiples of 8 in the index space
  // of `y`, not to `lo`: callers hand this sweep arbitrary sub-ranges of one
  // array (softmax group chunks), and bitwise worker-count invariance
  // requires every element to take the same value no matter how the range
  // was split. Ragged edges go through the same polynomial via a padded
  // temp block instead of a scalar std::exp fallback.
  if (lo >= hi) return;
  const std::size_t a0 = (lo + 7) & ~std::size_t{7};
  if (lo < a0) {
    const std::size_t head_end = a0 < hi ? a0 : hi;
    exp_edge_block(y, a0 - 8, lo, head_end);
    if (hi <= a0) return;
  }
  std::size_t i = a0;
  for (; i + 8 <= hi; i += 8) {
    _mm256_storeu_ps(y + i, exp256_ps(_mm256_loadu_ps(y + i)));
  }
  if (i < hi) exp_edge_block(y, i, i, hi);
}

void gather_mul(const float* q, const std::int32_t* index, const float* p, float* out,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index + i));
    const __m256 vq = _mm256_i32gather_ps(q, vi, 4);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(vq, _mm256_loadu_ps(p + i)));
  }
  for (; i < n; ++i) out[i] = q[static_cast<std::size_t>(index[i])] * p[i];
}

double overflow_forward(Activation act, float alpha, const float* x, const float* c,
                        float* av, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(c + i));
    _mm256_storeu_ps(av + i, act_forward_ps(act, alpha, v));
  }
  for (; i < n; ++i) av[i] = act_forward(act, alpha, x[i] - c[i]);
  // Index-order double accumulation, matching the scalar path's order (so
  // the exact activations — ReLU/LeakyReLU — give bitwise-equal sums).
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += static_cast<double>(av[k]);
  return acc;
}

void overflow_backward(Activation act, float alpha, double g, const float* x,
                       const float* c, const float* av, double* gx, std::size_t n) {
  const __m256d gd = _mm256_set1_pd(g);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(c + i));
    const __m256 d = act_derivative_ps(act, alpha, v, _mm256_loadu_ps(av + i));
    const __m256d dlo = _mm256_cvtps_pd(_mm256_castps256_ps128(d));
    const __m256d dhi = _mm256_cvtps_pd(_mm256_extractf128_ps(d, 1));
    _mm256_storeu_pd(gx + i, _mm256_fmadd_pd(gd, dlo, _mm256_loadu_pd(gx + i)));
    _mm256_storeu_pd(gx + i + 4,
                     _mm256_fmadd_pd(gd, dhi, _mm256_loadu_pd(gx + i + 4)));
  }
  for (; i < n; ++i) {
    gx[i] += g * act_derivative(act, alpha, x[i] - c[i], av[i]);
  }
}

}  // namespace dgr::ad::simd

#endif  // DGR_SIMD
