#include <atomic>

#include "kernels/ops_internal.h"

namespace collapois::kernels {

namespace {

constexpr KernelOps kNaiveOps{
    "naive",
    detail::naive_gemm,
    detail::naive_gemm_a_bt_accum,
    detail::naive_gemm_at_b_accum,
    detail::naive_conv2d_forward,
    detail::naive_conv2d_backward,
};

constexpr KernelOps kBlockedOps{
    "blocked",
    detail::blocked_gemm,
    detail::blocked_gemm_a_bt_accum,
    detail::blocked_gemm_at_b_accum,
    detail::blocked_conv2d_forward,
    detail::blocked_conv2d_backward,
};

// Relaxed atomic: run_experiment() stores the configured kind before the
// thread pool spawns; workers only ever load it. The value selects
// between two immutable op tables, so there is no data to order.
std::atomic<KernelKind> g_active{KernelKind::blocked};

}  // namespace

std::uint64_t new_conv_layer_id() {
  // Starts at 1: layer id 0 is the untagged ConvTag.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::naive: return "naive";
    case KernelKind::blocked: return "blocked";
  }
  return "unknown";
}

void set_active_kernels(KernelKind kind) {
  g_active.store(kind, std::memory_order_relaxed);
}

KernelKind active_kernels() {
  return g_active.load(std::memory_order_relaxed);
}

const KernelOps& ops_for(KernelKind kind) {
  return kind == KernelKind::naive ? kNaiveOps : kBlockedOps;
}

const KernelOps& ops() { return ops_for(active_kernels()); }

namespace {

// Thread-local by design: worker threads never install a kernel pool, so
// kernels called from inside a ThreadPool task always see nullptr and
// stay sequential — nested parallel_for (a deadlock, see
// runtime/thread_pool.h) is impossible by construction.
thread_local runtime::ThreadPool* t_kernel_pool = nullptr;

}  // namespace

runtime::ThreadPool* kernel_pool() { return t_kernel_pool; }

ScopedKernelPool::ScopedKernelPool(runtime::ThreadPool* pool)
    : prev_(t_kernel_pool) {
  t_kernel_pool = pool;
}

ScopedKernelPool::~ScopedKernelPool() { t_kernel_pool = prev_; }

}  // namespace collapois::kernels
