// Scalar defense column tiles, plus the tier dispatch. The avx2
// tiles live in defense_simd_avx2.cpp (the only defense TU built with
// -mavx2 -mfma).
//
// The scalar variants are written to mirror the SIMD instruction
// semantics lane-for-lane — (a < b) ? a : b for min (minps returns the
// second operand on equality), mask-style sign counting — so all tiers
// produce bit-identical buffers and the property suite can demand exact
// equality instead of tolerances.
#include "defense/defense_tiles.h"

#include "kernels/cpu_dispatch.h"

namespace collapois::defense::detail {

namespace {

constexpr std::size_t W = kTileLanes;

void scalar_sort_lanes(float* buf, std::size_t n) {
  for_each_sort_pair(n, [buf](std::size_t a, std::size_t b) {
    float* ra = buf + a * W;
    float* rb = buf + b * W;
    for (std::size_t l = 0; l < W; ++l) {
      const float x = ra[l];
      const float y = rb[l];
      ra[l] = x < y ? x : y;  // minps: second operand on equality
      rb[l] = x > y ? x : y;  // maxps: second operand on equality
    }
  });
}

void scalar_vote_lanes(const float* base, std::size_t n, std::size_t stride,
                       double* sums, std::int32_t* counts) {
  for (std::size_t l = 0; l < W; ++l) {
    sums[l] = 0.0;
    counts[l] = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = base + i * stride;
    for (std::size_t l = 0; l < W; ++l) {
      const float x = row[l];
      sums[l] += static_cast<double>(x);
      counts[l] += (x > 0.0f ? 1 : 0) - (x < 0.0f ? 1 : 0);
    }
  }
}

}  // namespace

const DefenseTileOps kScalarTiles{scalar_sort_lanes, scalar_vote_lanes};

const DefenseTileOps& defense_tile_ops() {
  if (kernels::active_tier() == kernels::IsaTier::avx2 &&
      avx2_tiles_compiled()) {
    return avx2_tiles();
  }
  return kScalarTiles;
}

}  // namespace collapois::defense::detail
