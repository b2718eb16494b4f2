// Flat-vector aggregation math behind tensor/vecops.h, and the compare-
// and-copy layer kernels (ReLU masks, 2x2 max-pool). These are not
// kernel-set-dispatched — their numerics are identical under both kernel
// sets — but they live in this library so the hot loops compile under the
// kernels' optimization flags.
#include "kernels/kernels.h"

#include <algorithm>
#include <cstring>

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

// The index selects of a plain ternary tournament compile to
// data-dependent branches, which mispredict on most windows of real
// activations. Here every decision is a compare mask: 4 windows per step
// from two deinterleaved input rows, one code byte per window.
void maxpool2x2_forward(const float* in, std::size_t planes, std::size_t h,
                        std::size_t w, float* out, std::uint8_t* code) {
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  for (std::size_t row = 0; row < planes * oh; ++row) {
    const float* r0 = in + 2 * row * w;
    const float* r1 = r0 + w;
    float* o = out + row * ow;
    std::uint8_t* c = code + row * ow;
    std::size_t ox = 0;
#if defined(__SSE2__)
    const __m128i two = _mm_set1_epi32(2);
    for (; ox + 4 <= ow; ox += 4) {
      const __m128 t0 = _mm_loadu_ps(r0 + 2 * ox);
      const __m128 t1 = _mm_loadu_ps(r0 + 2 * ox + 4);
      const __m128 u0 = _mm_loadu_ps(r1 + 2 * ox);
      const __m128 u1 = _mm_loadu_ps(r1 + 2 * ox + 4);
      const __m128 a = _mm_shuffle_ps(t0, t1, _MM_SHUFFLE(2, 0, 2, 0));
      const __m128 b = _mm_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 1, 3, 1));
      const __m128 cc = _mm_shuffle_ps(u0, u1, _MM_SHUFFLE(2, 0, 2, 0));
      const __m128 d = _mm_shuffle_ps(u0, u1, _MM_SHUFFLE(3, 1, 3, 1));
      // maxps(x, y) is x > y ? x : y lane-wise — NaN and +-0 included —
      // the same selection as the compare masks that build the codes.
      const __m128 m0 = _mm_max_ps(b, a);
      const __m128 m1 = _mm_max_ps(d, cc);
      const __m128i g0 = _mm_castps_si128(_mm_cmpgt_ps(b, a));
      const __m128i g1 = _mm_castps_si128(_mm_cmpgt_ps(d, cc));
      const __m128i g2 = _mm_castps_si128(_mm_cmpgt_ps(m1, m0));
      _mm_storeu_ps(o + ox, _mm_max_ps(m1, m0));
      // code = g2 ? 2 + g1 : g0, with each mask lane 0 or ~0.
      const __m128i c_top = _mm_srli_epi32(g0, 31);
      const __m128i c_bot = _mm_or_si128(two, _mm_srli_epi32(g1, 31));
      const __m128i sel = _mm_or_si128(_mm_and_si128(g2, c_bot),
                                       _mm_andnot_si128(g2, c_top));
      const __m128i w16 = _mm_packs_epi32(sel, sel);
      const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(w16, w16));
      std::memcpy(c + ox, &bytes, 4);
    }
#endif
    for (; ox < ow; ++ox) {
      const float a = r0[2 * ox];
      const float b = r0[2 * ox + 1];
      const float cc = r1[2 * ox];
      const float d = r1[2 * ox + 1];
      const unsigned g0 = b > a;
      const unsigned g1 = d > cc;
      const float m0 = g0 != 0 ? b : a;
      const float m1 = g1 != 0 ? d : cc;
      const unsigned g2 = m1 > m0;
      o[ox] = g2 != 0 ? m1 : m0;
      c[ox] = static_cast<std::uint8_t>((g2 << 1) | (g2 & g1) |
                                        ((g2 ^ 1u) & g0));
    }
  }
}

void maxpool2x2_backward(const float* go, const std::uint8_t* code,
                         std::size_t planes, std::size_t h, std::size_t w,
                         float* gi) {
  const std::size_t ow = w / 2;
  for (std::size_t row = 0; row < planes * (h / 2); ++row) {
    float* g = gi + 2 * row * w;
    const float* src = go + row * ow;
    const std::uint8_t* c = code + row * ow;
    for (std::size_t ox = 0; ox < ow; ++ox) {
      g[2 * ox + (c[ox] & 1u) + (c[ox] >> 1) * w] += src[ox];
    }
  }
}

}  // namespace collapois::kernels
