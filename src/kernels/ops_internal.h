// Internal: the concrete op functions behind the two registered kernel
// sets. Only registry.cpp and the implementation TUs include this.
#pragma once

#include "kernels/kernels.h"

namespace collapois::kernels::detail {

// naive.cpp — the original reference loops.
void naive_gemm(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, const float* row_bias);
void naive_gemm_a_bt_accum(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n,
                           const float* col_bias, float* a_row_sums);
void naive_gemm_at_b_accum(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           float* a_col_sums);
void naive_conv2d_forward(const Conv2dShape& s, const float* in,
                          const float* weights, const float* bias, float* out,
                          ConvTag tag);
void naive_conv2d_backward(const Conv2dShape& s, const float* in,
                           const float* weights, const float* go, float* gw,
                           float* gb, float* gi, ConvTag tag);

// blocked.cpp — packed/blocked GEMM and the im2col convolution.
void blocked_gemm(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, const float* row_bias);
void blocked_gemm_a_bt_accum(const float* a, const float* b, float* c,
                             std::size_t m, std::size_t k, std::size_t n,
                             const float* col_bias, float* a_row_sums);
void blocked_gemm_at_b_accum(const float* a, const float* b, float* c,
                             std::size_t k, std::size_t m, std::size_t n,
                             float* a_col_sums);
void blocked_conv2d_forward(const Conv2dShape& s, const float* in,
                            const float* weights, const float* bias,
                            float* out, ConvTag tag);
void blocked_conv2d_backward(const Conv2dShape& s, const float* in,
                             const float* weights, const float* go, float* gw,
                             float* gb, float* gi, ConvTag tag);

// One ISA tier's GEMM entry points behind the blocked set's runtime
// dispatch (cpu_dispatch.h). Only the GEMMs are tier-specific — the conv
// ops lower onto them through the dispatching blocked_* wrappers. The
// first three are the packed/blocked drivers; the last three are the
// shape-routed streaming paths (shallow reductions over wide C, long dot
// products, short axpy stacks) that skip panel packing entirely. The conv
// GEMMs are dominated by the streaming shapes, so a tier that only
// accelerated the microkernel would leave conv throughput untouched.
struct TierOps {
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, const float* row_bias);
  void (*gemm_a_bt_accum)(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          const float* col_bias, float* a_row_sums);
  void (*gemm_at_b_accum)(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          float* a_col_sums);
  // C = A * B + bias for k <= 16, n >= 256: per-row axpy streams.
  void (*wide_gemm)(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, const float* row_bias);
  // C += A * B^T for m*n <= 512, k >= 512: long contiguous dot products.
  void (*dot_abt)(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, const float* col_bias,
                  float* a_row_sums);
  // C += A^T * B for k <= 16, n >= 256: axpy over long rows of B. With
  // `overwrite` set, C's prior contents are ignored (C = A^T * B): the
  // conv backward's column-gradient GEMM always writes a fresh workspace
  // matrix, and overwriting saves both the caller's memset and the
  // accumulator's read of C.
  void (*axpy_atb)(const float* a, const float* b, float* c, std::size_t k,
                   std::size_t m, std::size_t n, float* a_col_sums,
                   bool overwrite);
  // conv lowering (conv_lower.h): per-tier instantiations of the SAME
  // inline source — copies and pure adds only, so every tier's output is
  // bit-identical; the tier merely picks the vector width they run at.
  void (*im2col)(const Conv2dShape& s, const float* image, float* col,
                 std::size_t ldcol);
  void (*col2im_add)(const Conv2dShape& s, const float* col, std::size_t ldcol,
                     float* grad_image);
};

// simd_avx2.cpp — the 8x8 AVX2/FMA microkernel tier, built as its own
// translation unit with -mavx2 -mfma (the rest of the tree stays
// baseline-ISA; cpuid dispatch guarantees these functions only run on
// CPUs that support them). On targets where the TU compiles to a stub,
// avx2_tier_compiled() is false and avx2_tier_ops() must not be called.
bool avx2_tier_compiled();
const TierOps& avx2_tier_ops();

}  // namespace collapois::kernels::detail
