// Flat-vector aggregation math behind tensor/vecops.h. These are not
// kernel-set-dispatched — aggregation numerics are identical under both
// kernel sets — but they live in this library so the hot loops
// compile under the kernels' optimization flags.
#include "kernels/kernels.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace collapois::kernels {

void axpy_inplace(float* a, double s, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(a[i] + s * b[i]);
  }
}

void weighted_accumulate(double* acc, double w, const float* v,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * v[i];
}

void scaled_round(const double* acc, double inv_scale, float* out,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(acc[i] * inv_scale);
  }
}

void relu_forward_mask(float* x, std::size_t n, std::uint64_t* mask) {
  std::size_t i = 0;
  std::size_t w = 0;
#if defined(__SSE2__)
  // 16 compares fill one 64-bit mask word: cmpgt + movemask yields 4 bits
  // per vector, maxps clamps the same lanes (max(x, +0) == x > 0 ? x : +0
  // for every float including -0 and NaN, matching the scalar fallback).
  const __m128 zero = _mm_setzero_ps();
  for (; i + 64 <= n; i += 64, ++w) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < 64; j += 4) {
      const __m128 v = _mm_loadu_ps(x + i + j);
      bits |= static_cast<std::uint64_t>(
                  _mm_movemask_ps(_mm_cmpgt_ps(v, zero)))
              << j;
      _mm_storeu_ps(x + i + j, _mm_max_ps(v, zero));
    }
    mask[w] = bits;
  }
#endif
  for (; i < n; i += 64, ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, n - i);
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < lanes; ++j) {
      const bool active = x[i + j] > 0.0f;
      bits |= std::uint64_t{active} << j;
      x[i + j] = active ? x[i + j] : 0.0f;
    }
    mask[w] = bits;
  }
}

void relu_backward_mask(float* g, std::size_t n, const std::uint64_t* mask) {
  std::size_t i = 0;
  std::size_t w = 0;
#if defined(__SSE2__)
  // Expand 4 mask bits at a time into lane masks via a tiny LUT and AND
  // the gradient lanes — no per-element branches.
  alignas(16) static const std::uint32_t kLaneLut[16][4] = {
      {0, 0, 0, 0},    {~0u, 0, 0, 0},    {0, ~0u, 0, 0},    {~0u, ~0u, 0, 0},
      {0, 0, ~0u, 0},  {~0u, 0, ~0u, 0},  {0, ~0u, ~0u, 0},  {~0u, ~0u, ~0u, 0},
      {0, 0, 0, ~0u},  {~0u, 0, 0, ~0u},  {0, ~0u, 0, ~0u},  {~0u, ~0u, 0, ~0u},
      {0, 0, ~0u, ~0u}, {~0u, 0, ~0u, ~0u}, {0, ~0u, ~0u, ~0u},
      {~0u, ~0u, ~0u, ~0u}};
  for (; i + 64 <= n; i += 64, ++w) {
    const std::uint64_t bits = mask[w];
    for (std::size_t j = 0; j < 64; j += 4) {
      const __m128 lanes = _mm_load_ps(
          reinterpret_cast<const float*>(kLaneLut[(bits >> j) & 0xF]));
      _mm_storeu_ps(g + i + j, _mm_and_ps(_mm_loadu_ps(g + i + j), lanes));
    }
  }
#endif
  for (; i < n; i += 64, ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, n - i);
    const std::uint64_t bits = mask[w];
    for (std::size_t j = 0; j < lanes; ++j) {
      g[i + j] = (bits >> j & 1) != 0 ? g[i + j] : 0.0f;
    }
  }
}

}  // namespace collapois::kernels
