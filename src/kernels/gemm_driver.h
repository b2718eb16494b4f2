// Internal: the blocked GEMM's packing passes and 5-loop driver, templated
// on a microkernel policy so every ISA tier (kernels/cpu_dispatch.h)
// instantiates the SAME blocking structure around its own register tile.
//
// A policy provides:
//   static constexpr std::size_t MR, NR;   // register-tile rows / cols
//   static void micro(std::size_t kc, const float* ap, const float* bp,
//                     float* acc);         // acc: MR*NR accumulators
//
// Blocking scheme (BLIS-style, sized for the zoo's LeNet/MLP shapes and
// baseline-x86 register budgets):
//   - jc loop: NC-wide column blocks of C;
//   - pc loop: KC-deep slices of the reduction dimension; the B slice is
//     packed into NR-column panels;
//   - ic loop: MC-tall row blocks; the A slice is packed into MR-row
//     panels (epilogue sums are folded into this pass);
//   - jr/ir loops: an MR x NR register tile per microkernel call.
//
// Determinism: the loop nest and panel layout are pure functions of
// (m, k, n) and the policy's MR/NR; every accumulation happens in a fixed
// order, and nothing reads thread identity or workspace history — so
// results are bit-identical run-to-run. KC/MC/NC are shared by every
// tier, so each output element sees the same p-ascending reduction order
// under every policy; tiers differ at most in the rounding of the
// multiply-accumulate itself (scalar is mul-then-add; avx2 fuses them,
// single rounding, within the cross-set tolerance). MR/NR only regroup
// rows/columns into panels — the padded lanes accumulate zeros that the
// bounded store discards.
#pragma once

#include <algorithm>
#include <cstddef>

#include "kernels/workspace.h"

namespace collapois::kernels::detail {

// Cache-block sizes, shared by every tier (see determinism note above).
inline constexpr std::size_t kBlockKC = 256;  // reduction block
inline constexpr std::size_t kBlockMC = 64;   // row block
inline constexpr std::size_t kBlockNC = 512;  // column block

inline std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

// Write one microtile into C. `overwrite` = first reduction block of a
// C-overwriting GEMM; row_bias/col_bias are fused bias epilogues (already
// offset to this tile), valid region is mr x nr.
template <std::size_t NR>
void store_tile(float* c, std::size_t ldc, const float* acc, std::size_t mr,
                std::size_t nr, bool overwrite, const float* row_bias,
                const float* col_bias) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * NR;
    if (overwrite) {
      const float bias = row_bias != nullptr ? row_bias[i] : 0.0f;
      for (std::size_t j = 0; j < nr; ++j) crow[j] = arow[j] + bias;
    } else if (col_bias != nullptr) {
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] += arow[j] + col_bias[j];
      }
    } else {
      for (std::size_t j = 0; j < nr; ++j) crow[j] += arow[j];
    }
  }
}

// Pack an mc x kc block of A (row-major, leading dimension lda) into
// MR-row panels, zero-padding the ragged last panel. When row_sums is
// given (fused bias-gradient epilogue), each A element is added to its
// row's sum — callers only pass it on the first jc block so every element
// is counted exactly once.
template <std::size_t MR>
void pack_a(const float* a, std::size_t lda, std::size_t mc, std::size_t kc,
            float* ap, float* row_sums) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    float* panel = ap + ir * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        panel[p * MR + i] = a[(ir + i) * lda + p];
      }
      for (std::size_t i = mr; i < MR; ++i) panel[p * MR + i] = 0.0f;
    }
    if (row_sums != nullptr) {
      for (std::size_t i = 0; i < mr; ++i) {
        float s = 0.0f;
        const float* arow = a + (ir + i) * lda;
        for (std::size_t p = 0; p < kc; ++p) s += arow[p];
        row_sums[ir + i] += s;
      }
    }
  }
}

// Pack a kc x mc block of a TRANSPOSED-layout A (stored [k x m], leading
// dimension lda = m) into MR-row panels of A^T. col_sums, when given,
// receives sum_p A[p, i] for the fused dense bias-gradient epilogue.
template <std::size_t MR>
void pack_a_trans(const float* a, std::size_t lda, std::size_t mc,
                  std::size_t kc, float* ap, float* col_sums) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    float* panel = ap + ir * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* arow = a + p * lda + ir;
      for (std::size_t i = 0; i < mr; ++i) panel[p * MR + i] = arow[i];
      for (std::size_t i = mr; i < MR; ++i) panel[p * MR + i] = 0.0f;
    }
    if (col_sums != nullptr) {
      for (std::size_t i = 0; i < mr; ++i) {
        float s = 0.0f;
        for (std::size_t p = 0; p < kc; ++p) s += a[p * lda + ir + i];
        col_sums[ir + i] += s;
      }
    }
  }
}

// Pack a kc x nc block of B (row-major [k x n]) into NR-column panels.
template <std::size_t NR>
void pack_b(const float* b, std::size_t ldb, std::size_t kc, std::size_t nc,
            float* bp) {
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    float* panel = bp + jr * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* brow = b + p * ldb + jr;
      for (std::size_t j = 0; j < nr; ++j) panel[p * NR + j] = brow[j];
      for (std::size_t j = nr; j < NR; ++j) panel[p * NR + j] = 0.0f;
    }
  }
}

// Pack a kc x nc block of a TRANSPOSED-layout B (stored [n x k], leading
// dimension ldb = k) into NR-column panels of B^T.
template <std::size_t NR>
void pack_b_trans(const float* b, std::size_t ldb, std::size_t kc,
                  std::size_t nc, float* bp) {
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    float* panel = bp + jr * kc;
    for (std::size_t j = 0; j < nr; ++j) {
      const float* bcol = b + (jr + j) * ldb;
      for (std::size_t p = 0; p < kc; ++p) panel[p * NR + j] = bcol[p];
    }
    for (std::size_t j = nr; j < NR; ++j) {
      for (std::size_t p = 0; p < kc; ++p) panel[p * NR + j] = 0.0f;
    }
  }
}

enum class PackA { plain, trans };
enum class PackB { plain, trans };

// Shared 5-loop driver. `overwrite` gives C = A*B semantics (first
// reduction block overwrites, carrying row_bias); otherwise C += A*B with
// col_bias fused into the final reduction block's store. sums (row sums
// for plain A, column sums for transposed A) accumulate during the first
// jc block's packing pass.
template <typename MK>
void gemm_driver(const float* a, std::size_t lda, PackA a_mode,
                 const float* b, std::size_t ldb, PackB b_mode, float* c,
                 std::size_t m, std::size_t k, std::size_t n, bool overwrite,
                 const float* row_bias, const float* col_bias, float* sums) {
  constexpr std::size_t MR = MK::MR;
  constexpr std::size_t NR = MK::NR;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (overwrite) {
      for (std::size_t i = 0; i < m; ++i) {
        const float bias = row_bias != nullptr ? row_bias[i] : 0.0f;
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] = bias;
      }
    } else if (col_bias != nullptr) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += col_bias[j];
      }
    }
    return;
  }

  Workspace& ws = Workspace::tls();
  const std::size_t kc_max = std::min(kBlockKC, k);
  float* ap = ws.floats(Workspace::kPackedA,
                        round_up(std::min(kBlockMC, m), MR) * kc_max)
                  .data();
  float* bp = ws.floats(Workspace::kPackedB,
                        round_up(std::min(kBlockNC, n), NR) * kc_max)
                  .data();

  for (std::size_t jc = 0; jc < n; jc += kBlockNC) {
    const std::size_t nc = std::min(kBlockNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kBlockKC) {
      const std::size_t kc = std::min(kBlockKC, k - pc);
      const bool first_k = pc == 0;
      const bool last_k = pc + kc == k;
      if (b_mode == PackB::plain) {
        pack_b<NR>(b + pc * ldb + jc, ldb, kc, nc, bp);
      } else {
        pack_b_trans<NR>(b + jc * ldb + pc, ldb, kc, nc, bp);
      }
      for (std::size_t ic = 0; ic < m; ic += kBlockMC) {
        const std::size_t mc = std::min(kBlockMC, m - ic);
        // Epilogue sums accumulate exactly once per A element: only the
        // first jc block's packing pass carries the sums pointer.
        float* pack_sums = (jc == 0 && sums != nullptr) ? sums + ic : nullptr;
        if (a_mode == PackA::plain) {
          pack_a<MR>(a + ic * lda + pc, lda, mc, kc, ap, pack_sums);
        } else {
          pack_a_trans<MR>(a + pc * lda + ic, lda, mc, kc, ap, pack_sums);
        }
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          const std::size_t nr = std::min(NR, nc - jr);
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            const std::size_t mr = std::min(MR, mc - ir);
            float acc[MR * NR];
            MK::micro(kc, ap + ir * kc, bp + jr * kc, acc);
            store_tile<NR>(c + (ic + ir) * n + jc + jr, n, acc, mr, nr,
                           overwrite && first_k,
                           row_bias != nullptr ? row_bias + ic + ir : nullptr,
                           (last_k && col_bias != nullptr) ? col_bias + jc + jr
                                                           : nullptr);
          }
        }
      }
    }
  }
}

// The three GEMM entry points a tier exports, expressed over the driver.
// The small-problem and shape-special-case routing stays in blocked.cpp —
// those paths never reach a microkernel and are identical for every tier.
template <typename MK>
struct TierGemm {
  static void gemm(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const float* row_bias) {
    gemm_driver<MK>(a, k, PackA::plain, b, n, PackB::plain, c, m, k, n,
                    /*overwrite=*/true, row_bias, nullptr, nullptr);
  }
  static void gemm_a_bt_accum(const float* a, const float* b, float* c,
                              std::size_t m, std::size_t k, std::size_t n,
                              const float* col_bias, float* a_row_sums) {
    gemm_driver<MK>(a, k, PackA::plain, b, k, PackB::trans, c, m, k, n,
                    /*overwrite=*/false, nullptr, col_bias, a_row_sums);
  }
  static void gemm_at_b_accum(const float* a, const float* b, float* c,
                              std::size_t k, std::size_t m, std::size_t n,
                              float* a_col_sums) {
    gemm_driver<MK>(a, m, PackA::trans, b, n, PackB::plain, c, m, k, n,
                    /*overwrite=*/false, nullptr, nullptr, a_col_sums);
  }
};

}  // namespace collapois::kernels::detail
