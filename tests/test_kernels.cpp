// The compute-kernel layer (src/kernels/): blocked vs naive agreement on
// randomized shapes (ragged block tails, padding edges, batch=1), fused
// epilogue correctness, run-to-run bit identity, workspace reuse safety,
// and the double-accumulate contract of the aggregation helpers.
//
// Suites are named Kernel* so the sanitizer CI lanes pick them up by
// regex alongside the Runtime* suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "kernels/workspace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"
#include "tensor/vecops.h"

namespace collapois {
namespace {

// Restores the entry tier on scope exit so a failing sweep cannot leak a
// forced tier into later tests.
struct TierGuard {
  kernels::IsaTier entry = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(entry); }
};

std::vector<float> random_vec(stats::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Elementwise comparison with a relative-or-absolute tolerance: the two
// kernel sets sum in different orders, so exact equality is not expected,
// but every element must agree tightly.
void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, double rel_tol = 1e-4) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], rel_tol * scale) << "element " << i;
  }
}

// --- registry -----------------------------------------------------------

TEST(KernelRegistry, NamesAndOpTables) {
  EXPECT_STREQ(kernels::kernel_kind_name(kernels::KernelKind::naive), "naive");
  EXPECT_STREQ(kernels::kernel_kind_name(kernels::KernelKind::blocked),
               "blocked");
  EXPECT_STREQ(kernels::ops_for(kernels::KernelKind::naive).name, "naive");
  EXPECT_STREQ(kernels::ops_for(kernels::KernelKind::blocked).name, "blocked");
}

TEST(KernelRegistry, ActiveSetSwitches) {
  const kernels::KernelKind before = kernels::active_kernels();
  kernels::set_active_kernels(kernels::KernelKind::naive);
  EXPECT_STREQ(kernels::ops().name, "naive");
  kernels::set_active_kernels(kernels::KernelKind::blocked);
  EXPECT_STREQ(kernels::ops().name, "blocked");
  kernels::set_active_kernels(before);
}

// --- GEMM: blocked vs naive over randomized shapes ----------------------

// Shapes chosen to stress every ragged edge of the blocking scheme:
// dimensions below one register tile (MR=4, NR=8), just past a tile,
// past the MC=64 row block, and past the KC=256 reduction slice.
struct GemmShape {
  std::size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {1, 7, 9},    {3, 5, 7},     {4, 8, 8},    {5, 9, 11},
    {16, 32, 10}, {17, 33, 13}, {65, 40, 19},  {70, 300, 9}, {12, 257, 70},
    {33, 64, 33},
    // Streaming-route shapes (blocked.cpp cutoffs): shallow-k over wide C
    // (wide_gemm / axpy_atb, with a non-multiple-of-8 n tail) and a long
    // dot-product reduction (dot_abt) — each tier's override must hold
    // the same contracts as its microkernel.
    {4, 9, 512},  {3, 12, 261}, {6, 600, 24},
};

TEST(KernelGemm, BlockedMatchesNaiveWithAndWithoutRowBias) {
  stats::Rng rng(1234);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kGemmShapes) {
    SCOPED_TRACE(testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const auto a = random_vec(rng, s.m * s.k);
    const auto b = random_vec(rng, s.k * s.n);
    const auto bias = random_vec(rng, s.m);
    for (const float* row_bias : {static_cast<const float*>(nullptr),
                                  bias.data()}) {
      std::vector<float> want(s.m * s.n, -7.0f);  // overwritten, not read
      std::vector<float> got(s.m * s.n, 3.0f);
      naive.gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n, row_bias);
      blocked.gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, row_bias);
      expect_close(got, want);
    }
  }
}

TEST(KernelGemm, BlockedABtAccumMatchesNaiveWithEpilogues) {
  stats::Rng rng(99);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kGemmShapes) {
    SCOPED_TRACE(testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const auto a = random_vec(rng, s.m * s.k);
    const auto b = random_vec(rng, s.n * s.k);  // stored [n x k]
    const auto col_bias = random_vec(rng, s.n);
    const auto c0 = random_vec(rng, s.m * s.n);  // accumulation seed

    std::vector<float> want = c0;
    std::vector<float> got = c0;
    std::vector<float> want_sums(s.m, 0.5f);  // += semantics: seed nonzero
    std::vector<float> got_sums(s.m, 0.5f);
    naive.gemm_a_bt_accum(a.data(), b.data(), want.data(), s.m, s.k, s.n,
                          col_bias.data(), want_sums.data());
    blocked.gemm_a_bt_accum(a.data(), b.data(), got.data(), s.m, s.k, s.n,
                            col_bias.data(), got_sums.data());
    expect_close(got, want);
    expect_close(got_sums, want_sums);
  }
}

TEST(KernelGemm, BlockedAtBAccumMatchesNaiveWithColSums) {
  stats::Rng rng(2718);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kGemmShapes) {
    SCOPED_TRACE(testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    // C[m x n] += A^T B with A stored [k x m], B stored [k x n].
    const auto a = random_vec(rng, s.k * s.m);
    const auto b = random_vec(rng, s.k * s.n);
    const auto c0 = random_vec(rng, s.m * s.n);

    std::vector<float> want = c0;
    std::vector<float> got = c0;
    std::vector<float> want_sums(s.m, -1.0f);
    std::vector<float> got_sums(s.m, -1.0f);
    naive.gemm_at_b_accum(a.data(), b.data(), want.data(), s.k, s.m, s.n,
                          want_sums.data());
    blocked.gemm_at_b_accum(a.data(), b.data(), got.data(), s.k, s.m, s.n,
                            got_sums.data());
    expect_close(got, want);
    expect_close(got_sums, want_sums);
  }
}

// --- Conv2d: blocked (im2col + GEMM) vs naive direct loops --------------

const kernels::Conv2dShape kConvShapes[] = {
    // batch, cin, h, w, cout, k, pad, oh, ow
    {1, 1, 3, 3, 1, 3, 0, 1, 1},     // minimal valid conv
    {1, 1, 5, 7, 2, 3, 1, 5, 7},     // batch=1, odd sizes, same-padding
    {2, 3, 8, 8, 4, 3, 1, 8, 8},     // LeNet-ish interior shape
    {3, 2, 9, 5, 5, 3, 2, 11, 7},    // pad wider than usual
    {2, 2, 6, 6, 3, 1, 0, 6, 6},     // 1x1 kernel (pure channel mix)
    {1, 4, 11, 11, 8, 5, 2, 11, 11}, // 5x5 kernel, same-padding
    {4, 1, 16, 16, 4, 3, 1, 16, 16}, // first LeNet layer shape
};

TEST(KernelConv, ForwardBlockedMatchesNaive) {
  stats::Rng rng(31);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kConvShapes) {
    SCOPED_TRACE(testing::Message() << "b=" << s.batch << " cin=" << s.cin
                                    << " h=" << s.h << " w=" << s.w
                                    << " cout=" << s.cout << " k=" << s.k
                                    << " pad=" << s.pad);
    const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
    const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
    const auto bias = random_vec(rng, s.cout);
    const std::size_t out_n = s.batch * s.cout * s.oh * s.ow;
    std::vector<float> want(out_n, 9.0f);
    std::vector<float> got(out_n, -9.0f);
    naive.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                         want.data(), {});
    blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                           got.data(), {});
    expect_close(got, want);
  }
}

TEST(KernelConv, BackwardBlockedMatchesNaive) {
  stats::Rng rng(47);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kConvShapes) {
    SCOPED_TRACE(testing::Message() << "b=" << s.batch << " cin=" << s.cin
                                    << " h=" << s.h << " w=" << s.w
                                    << " cout=" << s.cout << " k=" << s.k
                                    << " pad=" << s.pad);
    const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
    const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
    const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);
    // Gradients accumulate (+=): seed them with a shared nonzero pattern.
    const auto gw0 = random_vec(rng, weights.size());
    const auto gb0 = random_vec(rng, s.cout);

    auto want_gw = gw0;
    auto want_gb = gb0;
    std::vector<float> want_gi(in.size(), 0.0f);
    naive.conv2d_backward(s, in.data(), weights.data(), go.data(),
                          want_gw.data(), want_gb.data(), want_gi.data(), {});
    auto got_gw = gw0;
    auto got_gb = gb0;
    std::vector<float> got_gi(in.size(), 0.0f);
    blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                            got_gw.data(), got_gb.data(), got_gi.data(), {});
    expect_close(got_gw, want_gw);
    expect_close(got_gb, want_gb);
    expect_close(got_gi, want_gi);
  }
}

// --- determinism: bit-identical run-to-run ------------------------------

TEST(KernelDeterminism, RepeatedCallsAreBitIdenticalForBothSets) {
  stats::Rng rng(1000);
  const kernels::Conv2dShape s{2, 3, 8, 8, 4, 3, 1, 8, 8};
  const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
  const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
  const auto bias = random_vec(rng, s.cout);
  const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);
  for (const auto kind :
       {kernels::KernelKind::naive, kernels::KernelKind::blocked}) {
    SCOPED_TRACE(kernels::kernel_kind_name(kind));
    const auto& k = kernels::ops_for(kind);
    std::vector<float> out1(s.batch * s.cout * s.oh * s.ow);
    std::vector<float> out2 = out1;
    k.conv2d_forward(s, in.data(), weights.data(), bias.data(), out1.data(),
                     {});
    k.conv2d_forward(s, in.data(), weights.data(), bias.data(), out2.data(),
                     {});
    ASSERT_EQ(0, std::memcmp(out1.data(), out2.data(),
                             out1.size() * sizeof(float)));

    std::vector<float> gw1(weights.size(), 0.0f), gb1(s.cout, 0.0f),
        gi1(in.size(), 0.0f);
    std::vector<float> gw2 = gw1, gb2 = gb1, gi2 = gi1;
    k.conv2d_backward(s, in.data(), weights.data(), go.data(), gw1.data(),
                      gb1.data(), gi1.data(), {});
    k.conv2d_backward(s, in.data(), weights.data(), go.data(), gw2.data(),
                      gb2.data(), gi2.data(), {});
    ASSERT_EQ(0,
              std::memcmp(gw1.data(), gw2.data(), gw1.size() * sizeof(float)));
    ASSERT_EQ(0,
              std::memcmp(gb1.data(), gb2.data(), gb1.size() * sizeof(float)));
    ASSERT_EQ(0,
              std::memcmp(gi1.data(), gi2.data(), gi1.size() * sizeof(float)));
  }
}

TEST(KernelDeterminism, ResultUnaffectedByWorkspacePollution) {
  // A kernel call must fully overwrite the scratch it reads — a previous
  // call with a DIFFERENT shape must not leak into the result.
  stats::Rng rng(555);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  const kernels::Conv2dShape small{1, 1, 5, 5, 2, 3, 1, 5, 5};
  const kernels::Conv2dShape big{2, 4, 12, 12, 6, 5, 2, 12, 12};

  const auto in_s = random_vec(rng, small.batch * small.cin * small.h * small.w);
  const auto w_s = random_vec(rng, small.cout * small.cin * small.k * small.k);
  const auto b_s = random_vec(rng, small.cout);
  const auto in_b = random_vec(rng, big.batch * big.cin * big.h * big.w);
  const auto w_b = random_vec(rng, big.cout * big.cin * big.k * big.k);
  const auto b_b = random_vec(rng, big.cout);

  std::vector<float> clean(small.batch * small.cout * small.oh * small.ow);
  blocked.conv2d_forward(small, in_s.data(), w_s.data(), b_s.data(),
                         clean.data(), {});
  // Pollute the thread's workspace with a larger problem, then redo.
  std::vector<float> scratch(big.batch * big.cout * big.oh * big.ow);
  blocked.conv2d_forward(big, in_b.data(), w_b.data(), b_b.data(),
                         scratch.data(), {});
  std::vector<float> redo(clean.size());
  blocked.conv2d_forward(small, in_s.data(), w_s.data(), b_s.data(),
                         redo.data(), {});
  ASSERT_EQ(0,
            std::memcmp(clean.data(), redo.data(),
                        clean.size() * sizeof(float)));
}

// --- workspace ----------------------------------------------------------

TEST(KernelWorkspace, GrowsMonotonicallyAndStopsAllocating) {
  kernels::Workspace ws;
  auto a = ws.floats(kernels::Workspace::kIm2col, 100);
  EXPECT_EQ(a.size(), 100u);
  const std::size_t after_first = ws.retained_bytes();
  EXPECT_GE(after_first, 100 * sizeof(float));
  // Smaller and equal requests must not grow the buffer.
  ws.floats(kernels::Workspace::kIm2col, 40);
  ws.floats(kernels::Workspace::kIm2col, 100);
  EXPECT_EQ(ws.retained_bytes(), after_first);
  // A different slot grows independently.
  ws.floats(kernels::Workspace::kPackedA, 64);
  EXPECT_GT(ws.retained_bytes(), after_first);
}

TEST(KernelWorkspace, SteadyStateConvAllocatesNothingNew) {
  stats::Rng rng(777);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  const kernels::Conv2dShape s{4, 4, 8, 8, 8, 3, 1, 8, 8};
  const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
  const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
  const auto bias = random_vec(rng, s.cout);
  const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);
  std::vector<float> out(s.batch * s.cout * s.oh * s.ow);
  std::vector<float> gw(weights.size(), 0.0f), gb(s.cout, 0.0f),
      gi(in.size(), 0.0f);
  // One untagged step (scratch lowering) and one tagged step (column
  // cache) per call; the tag's forward count advances like a layer's.
  const std::uint64_t layer = kernels::new_conv_layer_id();
  std::uint64_t seq = 0;
  auto steps = [&] {
    for (const kernels::ConvTag tag :
         {kernels::ConvTag{}, kernels::ConvTag{layer, ++seq}}) {
      blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                             out.data(), tag);
      blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                              gw.data(), gb.data(), gi.data(), tag);
    }
  };
  // Warm every column-cache entry, then no further step may allocate.
  for (std::size_t i = 0; i < kernels::ColumnCache::kEntries; ++i) steps();
  const std::size_t warm = kernels::Workspace::tls().retained_bytes();
  for (int i = 0; i < 5; ++i) steps();
  EXPECT_EQ(kernels::Workspace::tls().retained_bytes(), warm);
}

// --- aggregation helpers: double-accumulate contract --------------------

TEST(KernelVecMean, DoubleAccumulationSurvivesMagnitudeSpread) {
  // Float-order accumulation of {1e8, 1, 1, ...} absorbs the small terms
  // (1e8f + 1.0f == 1e8f); the double accumulator must not.
  const std::size_t kSmall = 4096;
  std::vector<tensor::FlatVec> vs;
  vs.push_back(tensor::FlatVec{1e8f});
  for (std::size_t i = 0; i < kSmall; ++i) vs.push_back(tensor::FlatVec{1.0f});
  const tensor::FlatVec m = tensor::mean_of(vs);
  ASSERT_EQ(m.size(), 1u);
  const double exact = (1e8 + static_cast<double>(kSmall)) /
                       static_cast<double>(vs.size());
  EXPECT_EQ(m[0], static_cast<float>(exact));
}

TEST(KernelVecMean, IndependentOfSummationOrder) {
  // Integer-valued floats sum exactly in double, so ANY permutation of
  // the inputs must produce the bit-identical mean. Under the old float
  // accumulation this failed for adversarial orderings.
  stats::Rng rng(4242);
  const std::size_t kVecs = 64, kDim = 37;
  std::vector<tensor::FlatVec> vs(kVecs);
  for (auto& v : vs) {
    v.resize(kDim);
    for (auto& x : v) {
      x = static_cast<float>(static_cast<int>(rng.uniform_int(20001)) - 10000);
    }
  }
  const tensor::FlatVec forward_order = tensor::mean_of(vs);
  std::vector<tensor::FlatVec> reversed(vs.rbegin(), vs.rend());
  EXPECT_EQ(tensor::mean_of(reversed), forward_order);

  std::vector<double> weights(kVecs);
  for (auto& w : weights) w = static_cast<double>(1 + rng.uniform_int(7));
  const tensor::FlatVec weighted = tensor::weighted_mean_of(vs, weights);
  std::vector<double> rev_weights(weights.rbegin(), weights.rend());
  EXPECT_EQ(tensor::weighted_mean_of(reversed, rev_weights), weighted);
}

// --- first-layer backward: gi == nullptr skips only the input grad -----

TEST(KernelConv, NullInputGradLeavesParamGradsBitIdentical) {
  stats::Rng rng(77);
  for (const auto kind :
       {kernels::KernelKind::naive, kernels::KernelKind::blocked}) {
    const auto& ops = kernels::ops_for(kind);
    for (const auto& s : kConvShapes) {
      SCOPED_TRACE(testing::Message()
                   << kernels::kernel_kind_name(kind) << " b=" << s.batch
                   << " cin=" << s.cin << " cout=" << s.cout << " k=" << s.k
                   << " pad=" << s.pad);
      const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
      const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
      const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);
      const auto gw0 = random_vec(rng, weights.size());
      const auto gb0 = random_vec(rng, s.cout);

      auto full_gw = gw0;
      auto full_gb = gb0;
      std::vector<float> gi(in.size(), 0.0f);
      ops.conv2d_backward(s, in.data(), weights.data(), go.data(),
                          full_gw.data(), full_gb.data(), gi.data(), {});
      auto skip_gw = gw0;
      auto skip_gb = gb0;
      ops.conv2d_backward(s, in.data(), weights.data(), go.data(),
                          skip_gw.data(), skip_gb.data(), nullptr, {});
      EXPECT_EQ(0, std::memcmp(skip_gw.data(), full_gw.data(),
                               full_gw.size() * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(skip_gb.data(), full_gb.data(),
                               full_gb.size() * sizeof(float)));
    }
  }
}

// --- column reuse: a tagged backward (cache hit) equals an untagged one
// (re-lowered) bit for bit.

TEST(KernelConv, TaggedBackwardReusesColumnsBitIdentically) {
  stats::Rng rng(91);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  const std::uint64_t layer = kernels::new_conv_layer_id();
  std::uint64_t seq = 0;
  for (const auto& s : kConvShapes) {
    SCOPED_TRACE(testing::Message() << "b=" << s.batch << " cin=" << s.cin
                                    << " cout=" << s.cout << " k=" << s.k
                                    << " pad=" << s.pad);
    const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
    const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
    const auto bias = random_vec(rng, s.cout);
    const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);
    std::vector<float> out(s.batch * s.cout * s.oh * s.ow);
    const kernels::ConvTag tag{layer, ++seq};
    blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                           out.data(), tag);
    ASSERT_NE(kernels::Workspace::tls().columns().find(tag, s), nullptr);
    std::vector<float> hit_gw(weights.size(), 0.0f), hit_gb(s.cout, 0.0f),
        hit_gi(in.size(), 0.0f);
    auto miss_gw = hit_gw, miss_gb = hit_gb, miss_gi = hit_gi;
    blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                            hit_gw.data(), hit_gb.data(), hit_gi.data(), tag);
    blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                            miss_gw.data(), miss_gb.data(), miss_gi.data(),
                            {});
    EXPECT_EQ(0, std::memcmp(hit_gw.data(), miss_gw.data(),
                             hit_gw.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(hit_gb.data(), miss_gb.data(),
                             hit_gb.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(hit_gi.data(), miss_gi.data(),
                             hit_gi.size() * sizeof(float)));
  }
}

// --- packed ReLU mask helpers -------------------------------------------

TEST(KernelReluMask, ForwardClampAndMaskMatchScalarReference) {
  stats::Rng rng(501);
  // Sizes straddling the SIMD main loop and the scalar tail, plus the
  // sub-word edge cases.
  for (const std::size_t n : {1ul, 3ul, 63ul, 64ul, 65ul, 100ul, 128ul,
                              1000ul, 16384ul}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
    if (n >= 3) {
      x[0] = 0.0f;   // exactly zero: inactive
      x[1] = -0.0f;  // negative zero: inactive, clamps to +0
      x[2] = 1e-30f; // tiny positive: active
    }
    auto want = x;
    std::vector<std::uint64_t> want_mask((n + 63) / 64, ~std::uint64_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const bool active = want[i] > 0.0f;
      if (!active) {
        want[i] = 0.0f;
        want_mask[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
      }
    }
    // Reference writes whole words; clear the padding bits beyond n.
    if (n % 64 != 0) want_mask.back() &= (std::uint64_t{1} << (n % 64)) - 1;

    auto got = x;
    std::vector<std::uint64_t> got_mask((n + 63) / 64, 0);
    kernels::relu_forward_mask(got.data(), n, got_mask.data());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));
    EXPECT_EQ(got_mask, want_mask);
  }
}

TEST(KernelReluMask, BackwardZeroesExactlyTheInactiveLanes) {
  stats::Rng rng(502);
  for (const std::size_t n : {1ul, 63ul, 64ul, 65ul, 200ul, 4096ul}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<std::uint64_t> mask((n + 63) / 64, 0);
    kernels::relu_forward_mask(x.data(), n, mask.data());

    std::vector<float> g(n);
    for (auto& v : g) v = static_cast<float>(rng.normal(0.0, 1.0));
    auto want = g;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask[i >> 6] >> (i & 63) & 1) == 0) want[i] = 0.0f;
    }
    kernels::relu_backward_mask(g.data(), n, mask.data());
    EXPECT_EQ(0, std::memcmp(g.data(), want.data(), n * sizeof(float)));
  }
}

// --- runtime ISA dispatch (cpu_dispatch.h) ------------------------------

TEST(KernelDispatch, DetectionIsConsistent) {
  const kernels::CpuFeatures& f = kernels::cpu_features();
  // Feature implications cpuid guarantees: avx2 ⊃ avx ⊃ sse2.
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  if (f.avx) {
    EXPECT_TRUE(f.sse2);
  }
  const kernels::IsaTier det = kernels::detected_tier();
  if (det == kernels::IsaTier::avx2) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.fma);
  }
  // The active tier can never exceed what the CPU supports.
  EXPECT_LE(kernels::active_tier(), det);
  EXPECT_FALSE(kernels::cpu_feature_string().empty());
}

TEST(KernelDispatch, TierNamesRoundTripAndRejectUnknown) {
  for (const auto t : {kernels::IsaTier::scalar, kernels::IsaTier::avx2}) {
    EXPECT_EQ(kernels::parse_isa_tier(kernels::isa_tier_name(t)), t);
  }
  // Baseline SSE2 is the scalar tier's compile target, not a tier.
  EXPECT_THROW(kernels::parse_isa_tier("sse2"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_isa_tier("avx512"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_isa_tier(""), std::invalid_argument);
}

TEST(KernelDispatch, DispatchInfoMatchesActiveTier) {
  TierGuard guard;
  for (const auto tier : kernels::available_tiers()) {
    kernels::set_active_tier(tier);
    const kernels::DispatchInfo d = kernels::dispatch_info();
    EXPECT_EQ(d.tier, tier);
    EXPECT_GT(d.mr, 0u);
    EXPECT_GT(d.nr, 0u);
    EXPECT_STRNE(d.microkernel, "");
  }
}

TEST(KernelDispatch, ForcingAnUnsupportedTierThrows) {
  if (kernels::detected_tier() == kernels::IsaTier::avx2) {
    GTEST_SKIP() << "every tier is supported on this host";
  }
  EXPECT_THROW(kernels::set_active_tier(kernels::IsaTier::avx2),
               std::runtime_error);
}

// Each tier's blocked set must satisfy the SAME cross-set contract the
// default tier satisfies: agreement with naive to elementwise tolerance
// on every ragged shape. The shape tables already stress odd tails
// (dimensions past MR/NR/MC/KC boundaries) and batch=1.
TEST(KernelDispatch, EveryTierGemmMatchesNaive) {
  TierGuard guard;
  stats::Rng rng(8080);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kGemmShapes) {
    const auto a = random_vec(rng, s.m * s.k);
    const auto b = random_vec(rng, s.k * s.n);
    const auto bias = random_vec(rng, s.m);
    const auto bt = random_vec(rng, s.n * s.k);
    const auto at = random_vec(rng, s.k * s.m);
    const auto c0 = random_vec(rng, s.m * s.n);

    std::vector<float> want(s.m * s.n);
    naive.gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n, bias.data());
    std::vector<float> want_abt = c0;
    std::vector<float> want_abt_sums(s.m, 0.25f);
    naive.gemm_a_bt_accum(a.data(), bt.data(), want_abt.data(), s.m, s.k, s.n,
                          nullptr, want_abt_sums.data());
    std::vector<float> want_atb = c0;
    std::vector<float> want_atb_sums(s.m, -0.5f);
    naive.gemm_at_b_accum(at.data(), b.data(), want_atb.data(), s.k, s.m, s.n,
                          want_atb_sums.data());

    for (const auto tier : kernels::available_tiers()) {
      SCOPED_TRACE(testing::Message()
                   << kernels::isa_tier_name(tier) << " m=" << s.m
                   << " k=" << s.k << " n=" << s.n);
      kernels::set_active_tier(tier);
      std::vector<float> got(s.m * s.n, 42.0f);
      blocked.gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, bias.data());
      expect_close(got, want);
      std::vector<float> got_abt = c0;
      std::vector<float> got_abt_sums(s.m, 0.25f);
      blocked.gemm_a_bt_accum(a.data(), bt.data(), got_abt.data(), s.m, s.k,
                              s.n, nullptr, got_abt_sums.data());
      expect_close(got_abt, want_abt);
      expect_close(got_abt_sums, want_abt_sums);
      std::vector<float> got_atb = c0;
      std::vector<float> got_atb_sums(s.m, -0.5f);
      blocked.gemm_at_b_accum(at.data(), b.data(), got_atb.data(), s.k, s.m,
                              s.n, got_atb_sums.data());
      expect_close(got_atb, want_atb);
      expect_close(got_atb_sums, want_atb_sums);
    }
  }
}

TEST(KernelDispatch, EveryTierConvMatchesNaive) {
  TierGuard guard;
  stats::Rng rng(8181);
  const auto& naive = kernels::ops_for(kernels::KernelKind::naive);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  for (const auto& s : kConvShapes) {
    const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
    const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
    const auto bias = random_vec(rng, s.cout);
    const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);

    std::vector<float> want(go.size());
    naive.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                         want.data(), {});
    std::vector<float> want_gw(weights.size(), 0.0f), want_gb(s.cout, 0.0f),
        want_gi(in.size(), 0.0f);
    naive.conv2d_backward(s, in.data(), weights.data(), go.data(),
                          want_gw.data(), want_gb.data(), want_gi.data(), {});

    for (const auto tier : kernels::available_tiers()) {
      SCOPED_TRACE(testing::Message()
                   << kernels::isa_tier_name(tier) << " b=" << s.batch
                   << " cin=" << s.cin << " cout=" << s.cout << " k=" << s.k);
      kernels::set_active_tier(tier);
      std::vector<float> got(go.size(), -3.0f);
      blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                             got.data(), {});
      expect_close(got, want);
      std::vector<float> gw(weights.size(), 0.0f), gb(s.cout, 0.0f),
          gi(in.size(), 0.0f);
      blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                              gw.data(), gb.data(), gi.data(), {});
      expect_close(gw, want_gw);
      expect_close(gb, want_gb);
      expect_close(gi, want_gi);
    }
  }
}

// --- kernel pool: the conv batch fan-out ---------------------------------

TEST(KernelPool, ConvResultsBitIdenticalWithAndWithoutPool) {
  stats::Rng rng(8383);
  const auto& blocked = kernels::ops_for(kernels::KernelKind::blocked);
  const kernels::Conv2dShape s{4, 3, 8, 8, 5, 3, 1, 8, 8};
  const auto in = random_vec(rng, s.batch * s.cin * s.h * s.w);
  const auto weights = random_vec(rng, s.cout * s.cin * s.k * s.k);
  const auto bias = random_vec(rng, s.cout);
  const auto go = random_vec(rng, s.batch * s.cout * s.oh * s.ow);

  ASSERT_EQ(kernels::kernel_pool(), nullptr);
  std::vector<float> inline_out(go.size());
  std::vector<float> inline_gw(weights.size(), 0.0f), inline_gb(s.cout, 0.0f),
      inline_gi(in.size(), 0.0f);
  blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                         inline_out.data(), {});
  blocked.conv2d_backward(s, in.data(), weights.data(), go.data(),
                          inline_gw.data(), inline_gb.data(),
                          inline_gi.data(), {});

  runtime::ThreadPool pool(3);
  {
    kernels::ScopedKernelPool lend(&pool);
    ASSERT_EQ(kernels::kernel_pool(), &pool);
    std::vector<float> out(go.size());
    std::vector<float> gw(weights.size(), 0.0f), gb(s.cout, 0.0f),
        gi(in.size(), 0.0f);
    blocked.conv2d_forward(s, in.data(), weights.data(), bias.data(),
                           out.data(), {});
    blocked.conv2d_backward(s, in.data(), weights.data(), go.data(), gw.data(),
                            gb.data(), gi.data(), {});
    EXPECT_EQ(0, std::memcmp(out.data(), inline_out.data(),
                             out.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(gw.data(), inline_gw.data(),
                             gw.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(gb.data(), inline_gb.data(),
                             gb.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(gi.data(), inline_gi.data(),
                             gi.size() * sizeof(float)));
  }
  // RAII restores the previous (null) pool.
  EXPECT_EQ(kernels::kernel_pool(), nullptr);
}

TEST(KernelPool, WorkerThreadsNeverInheritThePool) {
  runtime::ThreadPool pool(2);
  kernels::ScopedKernelPool lend(&pool);
  ASSERT_EQ(kernels::kernel_pool(), &pool);
  // The pointer is thread-local: tasks running ON the pool must see null,
  // which is what makes nested parallel_for impossible by construction.
  std::atomic<int> nonnull_seen{0};
  runtime::parallel_for(&pool, 8, [&](std::size_t) {
    if (kernels::kernel_pool() != nullptr) nonnull_seen.fetch_add(1);
  });
  EXPECT_EQ(nonnull_seen.load(), 0);
}

}  // namespace
}  // namespace collapois
