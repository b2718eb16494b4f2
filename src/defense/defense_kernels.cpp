#include "defense/defense_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "defense/defense_tiles.h"
#include "runtime/parallel.h"
#include "stats/geometry.h"

namespace collapois::defense {

namespace {

// ---------------------------------------------------------------------------
// Shared per-column rules. Both sets funnel through these so the
// coordinate-wise results are exactly equal across impls: a column's
// values determine the output regardless of gather order (median /
// trimmed mean select by value; RLR / sign votes are accumulated in
// i-ascending order by both layouts).

float median_of_column(float* column, std::size_t n) {
  float* mid = column + n / 2;
  std::nth_element(column, mid, column + n);
  if (n % 2 == 1) return *mid;
  const float upper = *mid;
  const float lower = *std::max_element(column, mid);
  return (lower + upper) / 2.0f;
}

float trimmed_mean_of_column(float* column, std::size_t n, std::size_t trim) {
  std::sort(column, column + n);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = trim; i + trim < n; ++i) {
    sum += column[i];
    ++count;
  }
  return (count > 0) ? static_cast<float>(sum / static_cast<double>(count))
                     : column[n / 2];
}

// sum and signed vote over a column, i-ascending. The stride lets the
// fast set walk a row-major column in place; the accumulation order is
// the same either way, so gathered and strided walks are bit-identical.
struct ColumnVote {
  double sum = 0.0;
  double sign_sum = 0.0;
};

ColumnVote vote_of_column(const float* column, std::size_t n,
                          std::size_t stride = 1) {
  ColumnVote v;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = column[i * stride];
    v.sum += x;
    if (x > 0.0f) {
      v.sign_sum += 1.0;
    } else if (x < 0.0f) {
      v.sign_sum -= 1.0;
    }
  }
  return v;
}

float rlr_coordinate(const ColumnVote& v, std::size_t n, double threshold) {
  const double mean = v.sum / static_cast<double>(n);
  // Flip the coordinate's learning rate when sign agreement is weak.
  return static_cast<float>(std::fabs(v.sign_sum) >= threshold ? mean : -mean);
}

float sign_coordinate(const ColumnVote& v, double step) {
  return static_cast<float>(
      step * (v.sign_sum > 0.0 ? 1.0 : (v.sign_sum < 0.0 ? -1.0 : 0.0)));
}

// ---------------------------------------------------------------------------
// Naive set: sequential strided gathers, one column at a time — the
// original aggregator loops lifted verbatim. Reference for the property
// suite; the pool is ignored.

void naive_pairwise(const fl::UpdateMatrix& m, double* out,
                    runtime::ThreadPool* /*pool*/) {
  stats::pairwise_sq_distances_naive(m.data(), m.rows(), m.cols(), out);
}

void naive_median(const fl::UpdateMatrix& m, float* out,
                  runtime::ThreadPool* /*pool*/) {
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = m.data()[i * d + j];
    out[j] = median_of_column(column.data(), n);
  }
}

void naive_trimmed_mean(const fl::UpdateMatrix& m, std::size_t trim,
                        float* out, runtime::ThreadPool* /*pool*/) {
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = m.data()[i * d + j];
    out[j] = trimmed_mean_of_column(column.data(), n, trim);
  }
}

void naive_rlr(const fl::UpdateMatrix& m, double threshold, float* out,
               runtime::ThreadPool* /*pool*/) {
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = m.data()[i * d + j];
    out[j] = rlr_coordinate(vote_of_column(column.data(), n), n, threshold);
  }
}

void naive_sign(const fl::UpdateMatrix& m, double step, float* out,
                runtime::ThreadPool* /*pool*/) {
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = m.data()[i * d + j];
    out[j] = sign_coordinate(vote_of_column(column.data(), n), step);
  }
}

// ---------------------------------------------------------------------------
// Fast set: SIMD column tiles (defense_tiles.h), dispatched on the same
// runtime ISA tier as the GEMM microkernels. The d coordinates are split
// into kCoordTile blocks dispatched over the pool; within a block,
// kTileLanes = 8 ADJACENT columns are processed per step, lanes being
// columns of the row-major update matrix:
//
//   - vote rules (RLR, sign) read the 8-column group strided straight
//     out of the matrix — row-major rows make the walk sequential in
//     memory — accumulating each lane's double sum in i-ascending order
//     and its sign count via branch-free compare masks. Bit-identical
//     to vote_of_column: same per-lane op sequence, and the integer
//     sign count converts to double exactly.
//   - selection rules (median, trimmed mean) gather the group into an
//     [n x 8] scratch (a 32-byte memcpy per row), sort all 8 lanes at
//     once with a Batcher compare-exchange network, and finish each
//     lane with the same arithmetic as the naive per-column rule on the
//     sorted values. The sorted multiset per lane is value-identical to
//     std::sort; min/max on numerically-equal values can swap or
//     duplicate ±0.0, which no finisher can observe (zeros contribute
//     nothing to a trimmed sum that starts at +0.0, and -0.0 == +0.0).
//
// The lane-group geometry is a compile-time constant — never the pool
// size or the dispatch tier — and each tile writes a disjoint
// out[j0, j1) range, so results are identical for any thread count and
// (property-tested) any ISA tier. A ragged tail group (d % 8 != 0) is
// gathered into the zero-padded scratch instead of read strided, so no
// lane ever loads past the end of the matrix.

constexpr std::size_t kCoordTile = 128;
static_assert(kCoordTile % detail::kTileLanes == 0,
              "lane groups must not straddle parallel tiles");
// Cohorts this small sort in a stack buffer instead of a heap scratch.
constexpr std::size_t kStackRows = 256;
// fast_median uses the lane sorting network only up to this row count.
// The network fully sorts (n log^2 n compare-exchanges per lane group)
// but a median needs only a selection, and std::nth_element's O(n) per
// column overtakes the vectorized sort between 128 and 256 rows on the
// bench cohorts — past the cutoff the fast set gathers each column and
// runs the same median_of_column as the naive set.
constexpr std::size_t kMedianNetworkMaxRows = 128;

// Gather columns [j0, j0 + w) into the [n x kTileLanes] lane buffer,
// zero-padding lanes [w, kTileLanes).
void gather_lane_group(const float* data, std::size_t n, std::size_t d,
                       std::size_t j0, std::size_t w, float* buf) {
  constexpr std::size_t W = detail::kTileLanes;
  if (w == W) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(buf + i * W, data + i * d + j0, W * sizeof(float));
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = data + i * d + j0;
    float* dst = buf + i * W;
    for (std::size_t l = 0; l < w; ++l) dst[l] = row[l];
    for (std::size_t l = w; l < W; ++l) dst[l] = 0.0f;
  }
}

// Sorts every column and calls finish(j, lane) with the column's values
// ascending at lane[0], lane[W], lane[2W], ...
template <typename Finish>
void sorted_columns_tiled(const fl::UpdateMatrix& m, runtime::ThreadPool* pool,
                          Finish finish) {
  constexpr std::size_t W = detail::kTileLanes;
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  const detail::DefenseTileOps& tops = detail::defense_tile_ops();
  const std::size_t tiles = (d + kCoordTile - 1) / kCoordTile;
  runtime::parallel_for(pool, tiles, [&](std::size_t t) {
    const float* data = m.data();
    float stack_buf[kStackRows * W];
    std::vector<float> heap_buf;
    float* buf = stack_buf;
    if (n > kStackRows) {
      heap_buf.resize(n * W);
      buf = heap_buf.data();
    }
    const std::size_t j0t = t * kCoordTile;
    const std::size_t j1 = std::min(j0t + kCoordTile, d);
    for (std::size_t j0 = j0t; j0 < j1; j0 += W) {
      const std::size_t w = std::min(W, j1 - j0);
      gather_lane_group(data, n, d, j0, w, buf);
      tops.sort_lanes(buf, n);
      for (std::size_t l = 0; l < w; ++l) finish(j0 + l, buf + l);
    }
  });
}

// Computes every column's vote (i-ascending double sum + integer sign
// count) and calls finish(j, vote).
template <typename Finish>
void voted_columns_tiled(const fl::UpdateMatrix& m, runtime::ThreadPool* pool,
                         Finish finish) {
  constexpr std::size_t W = detail::kTileLanes;
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  const detail::DefenseTileOps& tops = detail::defense_tile_ops();
  const std::size_t tiles = (d + kCoordTile - 1) / kCoordTile;
  runtime::parallel_for(pool, tiles, [&](std::size_t t) {
    const float* data = m.data();
    float stack_buf[kStackRows * W];
    std::vector<float> heap_buf;
    double sums[W];
    std::int32_t counts[W];
    const std::size_t j0t = t * kCoordTile;
    const std::size_t j1 = std::min(j0t + kCoordTile, d);
    for (std::size_t j0 = j0t; j0 < j1; j0 += W) {
      const std::size_t w = std::min(W, j1 - j0);
      if (w == W) {
        tops.vote_lanes(data + j0, n, d, sums, counts);
      } else {
        // Ragged tail: route through the zero-padded gather (padding
        // contributes +0.0 sums and zero counts) so the strided walk
        // never reads past the last row.
        float* buf = stack_buf;
        if (n > kStackRows) {
          heap_buf.resize(n * W);
          buf = heap_buf.data();
        }
        gather_lane_group(data, n, d, j0, w, buf);
        tops.vote_lanes(buf, n, W, sums, counts);
      }
      for (std::size_t l = 0; l < w; ++l) {
        finish(j0 + l,
               ColumnVote{sums[l], static_cast<double>(counts[l])});
      }
    }
  });
}

void fast_pairwise(const fl::UpdateMatrix& m, double* out,
                   runtime::ThreadPool* pool) {
  stats::pairwise_sq_distances_gram(m.data(), m.rows(), m.cols(),
                                    m.row_sqnorms().data(), out, pool);
}

void fast_median(const fl::UpdateMatrix& m, float* out,
                 runtime::ThreadPool* pool) {
  constexpr std::size_t W = detail::kTileLanes;
  const std::size_t n = m.rows();
  if (n > kMedianNetworkMaxRows) {
    // Selection beats the full sort at this size (see the constant's
    // comment); values are identical either way — both reduce to the
    // naive rule's arithmetic on the same column multiset.
    const std::size_t d = m.cols();
    const std::size_t tiles = (d + kCoordTile - 1) / kCoordTile;
    runtime::parallel_for(pool, tiles, [&](std::size_t t) {
      const float* data = m.data();
      std::vector<float> column(n);
      const std::size_t j0 = t * kCoordTile;
      const std::size_t j1 = std::min(j0 + kCoordTile, d);
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t i = 0; i < n; ++i) column[i] = data[i * d + j];
        out[j] = median_of_column(column.data(), n);
      }
    });
    return;
  }
  sorted_columns_tiled(m, pool, [&](std::size_t j, const float* lane) {
    // Same arithmetic as median_of_column on the sorted lane: the upper
    // middle, or the float mean of the two middles for even n.
    if (n % 2 == 1) {
      out[j] = lane[(n / 2) * W];
    } else {
      out[j] = (lane[(n / 2 - 1) * W] + lane[(n / 2) * W]) / 2.0f;
    }
  });
}

void fast_trimmed_mean(const fl::UpdateMatrix& m, std::size_t trim, float* out,
                       runtime::ThreadPool* pool) {
  constexpr std::size_t W = detail::kTileLanes;
  const std::size_t n = m.rows();
  sorted_columns_tiled(m, pool, [&](std::size_t j, const float* lane) {
    // Same arithmetic as trimmed_mean_of_column on the sorted lane.
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = trim; i + trim < n; ++i) {
      sum += lane[i * W];
      ++count;
    }
    out[j] = (count > 0) ? static_cast<float>(sum / static_cast<double>(count))
                         : lane[(n / 2) * W];
  });
}

void fast_rlr(const fl::UpdateMatrix& m, double threshold, float* out,
              runtime::ThreadPool* pool) {
  const std::size_t n = m.rows();
  voted_columns_tiled(m, pool, [&](std::size_t j, const ColumnVote& v) {
    out[j] = rlr_coordinate(v, n, threshold);
  });
}

void fast_sign(const fl::UpdateMatrix& m, double step, float* out,
               runtime::ThreadPool* pool) {
  voted_columns_tiled(m, pool, [&](std::size_t j, const ColumnVote& v) {
    out[j] = sign_coordinate(v, step);
  });
}

constexpr DefenseKernelOps kNaiveOps = {
    "naive",          naive_pairwise, naive_median,
    naive_trimmed_mean, naive_rlr,    naive_sign,
};

constexpr DefenseKernelOps kFastOps = {
    "fast",           fast_pairwise, fast_median,
    fast_trimmed_mean, fast_rlr,     fast_sign,
};

std::atomic<DefenseImpl> g_active{DefenseImpl::fast};

}  // namespace

const char* defense_impl_name(DefenseImpl impl) {
  switch (impl) {
    case DefenseImpl::naive:
      return "naive";
    case DefenseImpl::fast:
      return "fast";
  }
  return "unknown";
}

void set_active_defense_impl(DefenseImpl impl) {
  g_active.store(impl, std::memory_order_relaxed);
}

DefenseImpl active_defense_impl() {
  return g_active.load(std::memory_order_relaxed);
}

const DefenseKernelOps& defense_ops_for(DefenseImpl impl) {
  return impl == DefenseImpl::naive ? kNaiveOps : kFastOps;
}

const DefenseKernelOps& defense_ops() {
  return defense_ops_for(active_defense_impl());
}

}  // namespace collapois::defense
