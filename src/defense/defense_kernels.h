// Defense-kernel layer: the robust-aggregation hot loops behind a
// process-wide registry, mirroring the compute-kernel registry
// (kernels/kernels.h).
//
// Two sets are registered:
//   - naive: the original per-pair scalar distance loops and
//            per-coordinate gathers, kept as the reference
//            implementation (sequential; the pool argument is ignored);
//   - fast:  pairwise squared distances via the Gram-matrix identity on
//            the blocked GEMM (stats::pairwise_sq_distances_gram), and
//            the coordinate-wise rules restructured into contiguous
//            column tiles dispatched over runtime::parallel_for. The
//            default.
//
// Determinism contract: every op writes results addressed purely by
// output index with a fixed work decomposition (block / tile edges are
// compile-time constants, never derived from the pool size), so results
// are bit-identical for any thread count — including no pool at all.
// Across the two sets, the coordinate-wise ops (median / trimmed mean /
// RLR / sign vote) are EXACTLY equal: both sets select and accumulate
// each column's values in the same order, only the memory layout
// differs. The pairwise-distance op is not bit-equal across sets (float
// GEMM accumulation vs scalar double loops); Krum/FLARE results agree to
// tolerance with rank-stable selections (property-tested in
// tests/test_defense_kernels.cpp), which is why the defense impl — like
// the kernel kind — is part of the checkpoint fingerprint.
#pragma once

#include <cstddef>

#include "fl/update_matrix.h"

namespace collapois::runtime {
class ThreadPool;
}

namespace collapois::defense {

enum class DefenseImpl { naive, fast };

const char* defense_impl_name(DefenseImpl impl);

// One defense-kernel set. Every op takes the round's UpdateMatrix and an
// optional pool (nullptr = inline on the calling thread).
struct DefenseKernelOps {
  const char* name;

  // Full symmetric [n x n] matrix of squared L2 distances between rows
  // (row-major, zero diagonal) into `out`.
  void (*pairwise_sq_dists)(const fl::UpdateMatrix& m, double* out,
                            runtime::ThreadPool* pool);

  // out[j] = median_i m(i, j) (even n: mean of the two middle values,
  // matching the reference implementation's lower/upper selection).
  void (*coord_median)(const fl::UpdateMatrix& m, float* out,
                       runtime::ThreadPool* pool);

  // out[j] = mean of column j with the `trim` smallest and `trim`
  // largest values dropped (ascending double accumulation; falls back to
  // the column median when nothing survives the trim).
  void (*trimmed_mean)(const fl::UpdateMatrix& m, std::size_t trim,
                       float* out, runtime::ThreadPool* pool);

  // Robust Learning Rate: out[j] = column mean, negated where the
  // |sum of signs| falls below `threshold`.
  void (*rlr_vote)(const fl::UpdateMatrix& m, double threshold, float* out,
                   runtime::ThreadPool* pool);

  // SignSGD majority vote: out[j] = step * sign(sum_i sign(m(i, j))).
  void (*sign_vote)(const fl::UpdateMatrix& m, double step, float* out,
                    runtime::ThreadPool* pool);
};

// Process-wide active set. run_experiment() stores the configured impl
// before the pool spawns; workers only ever load it.
void set_active_defense_impl(DefenseImpl impl);
DefenseImpl active_defense_impl();

const DefenseKernelOps& defense_ops();                      // the active set
const DefenseKernelOps& defense_ops_for(DefenseImpl impl);  // a specific set

}  // namespace collapois::defense
