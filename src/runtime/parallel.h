// Structured fork-join helpers over an optional ThreadPool.
//
// Both helpers take the pool as a nullable pointer: nullptr runs the body
// inline on the calling thread, which IS the sequential baseline — there
// is no separate code path to keep in sync. Because work is addressed by
// index and results land in index order, the two modes are bit-identical
// whenever the per-index bodies are independent (the simulator's clients
// each own their RNG stream and lease a per-thread scratch model that
// keeps nothing between calls — nn/scratch.h — so they are).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace collapois::runtime {

// fn(i) for i in [0, n); blocks until all complete. Rethrows the first
// task exception in the calling thread.
inline void parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, fn);
}

// Ordered map: out[i] = fn(i). The result type must be default- and
// move-constructible. Completion order is irrelevant — slot i is written
// only by task i — so the returned vector is identical for any pool size.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  std::vector<Result> out(n);
  parallel_for(pool, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace collapois::runtime
