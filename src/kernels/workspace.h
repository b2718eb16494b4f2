// Per-thread reusable kernel scratch. Each worker thread (or the main
// thread in sequential runs) owns one Workspace holding the im2col
// buffer, packed GEMM panels, the conv column-gradient buffer, and the
// tagged cache of recent conv column matrices. Slots grow monotonically
// and are never shrunk, so after the first batch of a training run every
// kernel call is allocation-free.
//
// Slot contents are scratch: kernels fully overwrite the region they use
// before reading it, so reuse across layers, batches, and clients cannot
// leak state between computations (property-tested). The ColumnCache is
// the one store that is read back, and only under an exact tag match.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "kernels/kernels.h"

namespace collapois::kernels {

// The column matrices of the last kEntries tagged conv forwards on this
// thread, so a backward can reuse its forward's im2col instead of
// lowering the same input again. Four entries cover a plain step (two
// conv layers) and a distillation step, where the teacher's forward runs
// between the student's forward and backward. A lookup hits only on an
// exact tag and shape match; anything else (an evicted entry, a forward
// on another thread, an untagged call) is a miss, and the caller lowers
// into scratch as if there were no cache. Bounded per thread rather than
// per layer, so hundreds of idle client models hold no column memory.
class ColumnCache {
 public:
  static constexpr std::size_t kEntries = 4;

  // Storage of `n` floats for the column matrix of forward `tag` with
  // shape `s`, evicting the oldest entry. The caller must fill it.
  float* publish(ConvTag tag, const Conv2dShape& s, std::size_t n) {
    Entry& e = entries_[next_];
    next_ = (next_ + 1) % kEntries;
    e.tag = tag;
    e.shape = s;
    if (e.col.size() < n) e.col.resize(n);
    return e.col.data();
  }

  // The matrix published under (tag, s), or nullptr.
  const float* find(ConvTag tag, const Conv2dShape& s) const {
    if (tag.layer == 0) return nullptr;
    for (const Entry& e : entries_) {
      if (e.tag == tag && e.shape == s) return e.col.data();
    }
    return nullptr;
  }

  std::size_t retained_bytes() const {
    std::size_t total = 0;
    for (const Entry& e : entries_) total += e.col.capacity() * sizeof(float);
    return total;
  }

 private:
  struct Entry {
    ConvTag tag;
    Conv2dShape shape;
    std::vector<float> col;
  };
  std::array<Entry, kEntries> entries_;
  std::size_t next_ = 0;
};

class Workspace {
 public:
  // Fixed slot ids; each is an independent monotonically-growing buffer.
  enum Slot : std::size_t {
    kIm2col = 0,    // [cin*k*k x batch*oh*ow] column matrix (untagged/miss)
    kColGrad,       // same shape, gradient w.r.t. the column matrix
    kPackedA,       // MR-row panels of the GEMM's left operand
    kPackedB,       // NR-column panels of the GEMM's right operand
    kConvIo,        // [cout x batch*oh*ow] conv GEMM-layout output/grad
    kSlotCount,
  };

  // Scratch span of `n` floats for `slot`, growing the backing buffer if
  // needed. Contents are unspecified — callers must write before reading.
  std::span<float> floats(Slot slot, std::size_t n) {
    auto& buf = buffers_[slot];
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }

  ColumnCache& columns() { return columns_; }

  // Bytes currently retained across all slots and the column cache
  // (observability/tests).
  std::size_t retained_bytes() const {
    std::size_t total = columns_.retained_bytes();
    for (const auto& b : buffers_) total += b.capacity() * sizeof(float);
    return total;
  }

  // The calling thread's workspace.
  static Workspace& tls();

 private:
  std::array<std::vector<float>, kSlotCount> buffers_;
  ColumnCache columns_;
};

}  // namespace collapois::kernels
