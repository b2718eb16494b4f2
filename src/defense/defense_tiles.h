// Internal: the defense-kernel layer's SIMD column tiles, dispatched on
// the same runtime ISA tier as the GEMM microkernels
// (kernels/cpu_dispatch.h). Only defense_kernels.cpp and the tier TUs
// include this.
//
// The fast coordinate rules process kTileLanes = 8 ADJACENT columns of
// the row-major [n x d] update matrix per step — lanes are columns, so
// every vector op applies the same operation at the same position of 8
// independent per-column computations. That is what makes the tiers
// bit-exact with the naive per-column rules:
//
//   vote_lanes   — per-lane i-ascending float->double accumulation (the
//                  exact op sequence of the naive loop) plus an integer
//                  sign count, x > 0 minus x < 0, via compare masks
//                  (equivalent to movemask+popcount, kept as mask
//                  subtraction so the count stays in-register). The
//                  count converts to double exactly, so RLR and sign
//                  votes match the naive double ±1.0 accumulation
//                  bitwise.
//   sort_lanes   — Batcher odd-even mergesort as a compare-exchange
//                  network on [n x 8] lane buffers: each min/max pair
//                  sorts all 8 columns one exchange at a time, no
//                  branches, no data-dependent control flow. The sorted
//                  multiset per lane is value-identical to std::sort
//                  (the min/max pair on numerically-equal values can
//                  swap or duplicate ±0.0 — every downstream rule is
//                  insensitive to zero sign, see defense_kernels.cpp).
//
// Scalar and avx2 variants exist for both; the scalar variant mirrors
// the SIMD min/max and mask semantics exactly ((a < b) ? a : b, not
// std::min), so both tiers produce identical buffers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace collapois::defense::detail {

// Lane width of the column tiles. Fixed at 8 for every tier (avx2 = one
// 256-bit vector, scalar = an 8-array) so the lane-group geometry — and
// thus the column->group assignment — never depends on the dispatch
// tier.
inline constexpr std::size_t kTileLanes = 8;

struct DefenseTileOps {
  // Sort each lane (column) of an [n x kTileLanes] row-major buffer
  // ascending, via the Batcher network.
  void (*sort_lanes)(float* buf, std::size_t n);
  // Per lane l: sums[l] = sum over i ascending of (double)base[i*stride+l],
  // counts[l] = #(x > 0) - #(x < 0). Overwrites both outputs.
  void (*vote_lanes)(const float* base, std::size_t n, std::size_t stride,
                     double* sums, std::int32_t* counts);
};

// The tile set for kernels::active_tier().
const DefenseTileOps& defense_tile_ops();

// Tier tables (defense_tiles.cpp; avx2 in defense_simd_avx2.cpp, built
// with -mavx2 -mfma — stubbed to compiled()==false on other targets).
extern const DefenseTileOps kScalarTiles;
bool avx2_tiles_compiled();
const DefenseTileOps& avx2_tiles();

// Batcher odd-even mergesort comparator sequence for n elements: the
// network for the next power of two with out-of-range comparators
// dropped (virtual elements behave as +inf padding that every kept
// comparator leaves in place, so dropping is exact). Every comparator
// has a < b; cmpex(a, b) must write min to a and max to b. The sequence
// is a pure function of n — identical for every tier.
template <typename CmpEx>
void for_each_sort_pair(std::size_t n, CmpEx cmpex) {
  if (n < 2) return;
  std::size_t n2 = 1;
  while (n2 < n) n2 <<= 1;
  for (std::size_t p = 1; p < n2; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n2; j += 2 * k) {
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t a = i + j;
          const std::size_t b = i + j + k;
          if (b >= n) break;
          if (a / (2 * p) == b / (2 * p)) cmpex(a, b);
        }
      }
    }
  }
}

}  // namespace collapois::defense::detail
