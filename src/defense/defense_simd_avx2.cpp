// The avx2 defense column tiles — the only defense TU built with
// -mavx2 -mfma (see src/defense/CMakeLists.txt). The cpuid dispatcher
// keeps these functions off CPUs that cannot execute them; on non-x86
// targets this TU compiles to a stub and the tier caps below avx2.
//
// Same lane semantics as the scalar tiles (defense_tiles.cpp):
// vminps/vmaxps compare-exchanges for the sort network, one
// float->double convert + add per lane in i-ascending order for the
// vote sums, compare-mask subtraction for the sign counts — so outputs
// are bit-identical across tiers. No FMA appears here: the defense
// rules' float semantics must not change with the tier.
#include "defense/defense_tiles.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace collapois::defense::detail {

namespace {

constexpr std::size_t W = kTileLanes;

void avx2_sort_lanes(float* buf, std::size_t n) {
  for_each_sort_pair(n, [buf](std::size_t a, std::size_t b) {
    float* ra = buf + a * W;
    float* rb = buf + b * W;
    const __m256 x = _mm256_loadu_ps(ra);
    const __m256 y = _mm256_loadu_ps(rb);
    _mm256_storeu_ps(ra, _mm256_min_ps(x, y));
    _mm256_storeu_ps(rb, _mm256_max_ps(x, y));
  });
}

void avx2_vote_lanes(const float* base, std::size_t n, std::size_t stride,
                     double* sums, std::int32_t* counts) {
  const __m256 zero = _mm256_setzero_ps();
  __m256d s0 = _mm256_setzero_pd();  // lanes 0-3
  __m256d s1 = _mm256_setzero_pd();  // lanes 4-7
  __m256i cnt = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; ++i) {
    const __m256 x = _mm256_loadu_ps(base + i * stride);
    s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)));
    cnt = _mm256_sub_epi32(
        cnt, _mm256_castps_si256(_mm256_cmp_ps(x, zero, _CMP_GT_OQ)));
    cnt = _mm256_add_epi32(
        cnt, _mm256_castps_si256(_mm256_cmp_ps(x, zero, _CMP_LT_OQ)));
  }
  _mm256_storeu_pd(sums, s0);
  _mm256_storeu_pd(sums + 4, s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts), cnt);
}

const DefenseTileOps kAvx2Tiles{avx2_sort_lanes, avx2_vote_lanes};

}  // namespace

bool avx2_tiles_compiled() { return true; }

const DefenseTileOps& avx2_tiles() { return kAvx2Tiles; }

}  // namespace collapois::defense::detail

#else  // stub: target cannot compile AVX2 — the dispatcher never selects it

#include <cstdlib>

namespace collapois::defense::detail {

bool avx2_tiles_compiled() { return false; }

const DefenseTileOps& avx2_tiles() { std::abort(); }

}  // namespace collapois::defense::detail

#endif
