// Compute-kernel layer: the NN substrate's hot loops (GEMM variants, Conv2d
// lowering, flat-vector aggregation math) behind a process-wide registry.
//
// Two kernel sets are registered:
//   - naive:   the original triple-loop GEMM and 7-deep direct convolution,
//              kept verbatim as the reference implementation;
//   - blocked: cache-blocked, panel-packed GEMM with a register-tiled
//              microkernel (compiler-auto-vectorized), Conv2d lowered to
//              im2col/col2im over it, and fused bias / bias-gradient
//              epilogues. The default.
//
// Determinism contract: every kernel is single-threaded per call with a
// FIXED reduction order that depends only on the problem shape — never on
// thread count, workspace contents, or run history. Within one kernel set
// results are bit-identical run-to-run; across sets they agree to tight
// elementwise tolerance (property-tested in tests/test_kernels.cpp). The
// two sets are NOT bit-identical to each other, which is why the kernel
// choice is part of the checkpoint fingerprint (sim/checkpoint.cpp).
//
// Scratch memory comes from a per-thread Workspace (workspace.h): im2col
// buffers and packed panels are reused across batches, so steady-state
// training performs zero per-batch allocations inside the kernels. The
// blocked conv forward also leaves its column matrix in the workspace's
// small tagged cache, where the matching backward picks it up instead of
// lowering the same input a second time (ConvTag below).
#pragma once

#include <cstddef>
#include <cstdint>

namespace collapois::runtime {
class ThreadPool;
}

namespace collapois::kernels {

enum class KernelKind { naive, blocked };

const char* kernel_kind_name(KernelKind kind);

// Problem geometry for the Conv2d kernels: stride-1 convolution of a
// [batch, cin, h, w] input with a [cout, cin, k, k] filter bank and
// symmetric zero padding `pad`, producing [batch, cout, oh, ow].
struct Conv2dShape {
  std::size_t batch = 0;
  std::size_t cin = 0;
  std::size_t h = 0;
  std::size_t w = 0;
  std::size_t cout = 0;
  std::size_t k = 0;
  std::size_t pad = 0;
  std::size_t oh = 0;
  std::size_t ow = 0;

  friend bool operator==(const Conv2dShape&, const Conv2dShape&) = default;
};

// Names one conv forward pass: the calling layer's process-unique id
// (new_conv_layer_id) and that layer's forward count. The blocked
// backward reuses the forward's column matrix only when its tag matches
// exactly, so a tag must never name two different inputs. layer == 0 is
// untagged: nothing is cached and the backward re-lowers its input.
struct ConvTag {
  std::uint64_t layer = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const ConvTag&, const ConvTag&) = default;
};

// A fresh nonzero layer id from a process-wide counter; ids are never
// reused, so a cached column matrix can outlive its layer harmlessly.
std::uint64_t new_conv_layer_id();

// One kernel set. All GEMM epilogue pointers are optional (nullptr = no
// epilogue); epilogues are fused into the packing/store passes of the
// blocked set rather than run as separate sweeps.
struct KernelOps {
  const char* name;

  // C[m x n] = A[m x k] * B[k x n] (C overwritten). If row_bias is given,
  // row_bias[i] is added to every element of C row i (conv-forward bias).
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, const float* row_bias);

  // C[m x n] += A[m x k] * B^T where B is stored [n x k]. If col_bias is
  // given, col_bias[j] is added once to every element of C column j
  // (dense-forward bias; C is expected to start zeroed). If a_row_sums is
  // given, a_row_sums[i] += sum_k A[i, k] (conv bias-gradient epilogue).
  void (*gemm_a_bt_accum)(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          const float* col_bias, float* a_row_sums);

  // C[m x n] += A^T * B[k x n] where A is stored [k x m]. If a_col_sums is
  // given, a_col_sums[i] += sum_p A[p, i] (dense bias-gradient epilogue).
  void (*gemm_at_b_accum)(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          float* a_col_sums);

  // out[batch, cout, oh, ow] = conv(in, weights) + bias per out-channel.
  // `tag` names this forward so the backward of the same (layer, seq) can
  // reuse its lowering; the naive set ignores it.
  void (*conv2d_forward)(const Conv2dShape& s, const float* in,
                         const float* weights, const float* bias, float* out,
                         ConvTag tag);

  // Given grad_output `go` [batch, cout, oh, ow]: accumulate the weight
  // gradient into gw [cout, cin, k, k] and the bias gradient into
  // gb [cout], and write the input gradient into gi (zero-initialized by
  // the caller, same shape as `in`). gi may be nullptr (first layer of a
  // network) — the input-gradient work is skipped and gw/gb are
  // bit-identical to the gi != nullptr call. `tag` must be the tag of
  // the forward that saw `in` (or untagged); results never depend on
  // whether the cached lowering was still there.
  void (*conv2d_backward)(const Conv2dShape& s, const float* in,
                          const float* weights, const float* go, float* gw,
                          float* gb, float* gi, ConvTag tag);
};

// Process-wide active kernel set. run_experiment() sets it from
// ExperimentConfig::kernels before any worker thread spawns; the default
// (blocked) covers code that trains models outside an experiment.
void set_active_kernels(KernelKind kind);
KernelKind active_kernels();

const KernelOps& ops();                    // the active set
const KernelOps& ops_for(KernelKind kind); // a specific set

// True when the blocked set runs an m x k x n GEMM (any of its three
// variants: the MAC count m*k*n decides) through the shared naive loops,
// the small-problem routing in blocked.cpp. Both sets then execute the
// same code, so a timing ratio between them measures only noise.
bool blocked_routes_to_naive(std::size_t m, std::size_t k, std::size_t n);

// --- kernel-internal parallelism ----------------------------------------
// The conv lowering fans its per-image im2col/col2im passes out over this
// thread-local pool (nullptr = run inline; see runtime/parallel.h). Each
// image packs a disjoint range, so results are bit-identical for any
// thread count — the pool trades wall time only.
//
// The pool is installed with ScopedKernelPool from code that is NOT
// running inside a ThreadPool task (parallel_for must never nest, see
// runtime/thread_pool.h). Worker threads never inherit it: the pointer is
// thread-local, so kernels called from per-client training tasks always
// see nullptr and stay sequential. run_experiment does not install it:
// each fanned-out image is microseconds of copying, below the pool's
// per-task dispatch cost, so lent to trojan-model training it made the
// default thread count several times slower than one thread. Kept for
// the campaign benchmark's traced run, which still installs it.
runtime::ThreadPool* kernel_pool();

class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(runtime::ThreadPool* pool);
  ~ScopedKernelPool();
  ScopedKernelPool(const ScopedKernelPool&) = delete;
  ScopedKernelPool& operator=(const ScopedKernelPool&) = delete;

 private:
  runtime::ThreadPool* prev_;
};

// --- flat-vector aggregation math ---------------------------------------
// Hot helpers behind tensor/vecops.h, compiled in this library's optimized
// translation units. Not kernel-set-dispatched: both sets share one
// definition, so aggregation numerics never depend on the active kernel set.

// a[i] = float(a[i] + s * b[i]).
void axpy_inplace(float* a, double s, const float* b, std::size_t n);

// acc[i] += w * v[i], accumulated in double (the drift-free path under
// mean_of / weighted_mean_of: hundreds of client updates are summed at
// double precision and rounded to float exactly once).
void weighted_accumulate(double* acc, double w, const float* v,
                         std::size_t n);

// out[i] = float(acc[i] * inv_scale).
void scaled_round(const double* acc, double inv_scale, float* out,
                  std::size_t n);

// ReLU forward: clamp x to max(x, 0) in place and record bit i of `mask`
// as x[i] > 0 (packed, 64 activations per word; every touched word is
// fully written). SIMD compare+movemask on x86, scalar elsewhere —
// elementwise either way, so numerics are identical.
void relu_forward_mask(float* x, std::size_t n, std::uint64_t* mask);

// ReLU backward: zero g[i] wherever mask bit i is clear.
void relu_backward_mask(float* g, std::size_t n, const std::uint64_t* mask);

// 2x2 stride-2 max pooling of `planes` row-major h x w planes (h, w even)
// into (h/2) x (w/2) planes. Within a window the candidates are visited
// in (0,0) (0,1) (1,0) (1,1) order and a later one wins only under strict
// >, so ties keep the first and a NaN resolves exactly like the scalar
// tournament `m0 = b > a ? b : a; m1 = d > c ? d : c; m1 > m0 ? m1 : m0`.
// code[i] records output i's winner as row * 2 + col (0..3). SIMD
// compare/select on x86 with a branch-free scalar tail — only compares
// and copies, so the output is identical on every path.
void maxpool2x2_forward(const float* in, std::size_t planes, std::size_t h,
                        std::size_t w, float* out, std::uint8_t* code);

// Max-pool backward: gi[winner of window i] += go[i], with gi shaped like
// the forward's input (zero-initialized by the caller).
void maxpool2x2_backward(const float* go, const std::uint8_t* code,
                         std::size_t planes, std::size_t h, std::size_t w,
                         float* gi);

}  // namespace collapois::kernels
