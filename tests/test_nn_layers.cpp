// Layer-level tests: shapes, clone semantics, and — most importantly —
// numerical gradient checks of every differentiable layer and of a full
// LeNet-style model (central finite differences against the analytic
// backward pass).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "kernels/workspace.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "stats/rng.h"

namespace collapois::nn {
namespace {

// Scalar loss for gradient checking: sum of squares of the output.
double half_sq(const Tensor& t) {
  double s = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    s += 0.5 * static_cast<double>(t[i]) * t[i];
  }
  return s;
}

Tensor half_sq_grad(const Tensor& t) { return t; }

// Verify dL/dparams and dL/dinput for a model against finite differences.
void check_gradients(Model& model, Tensor input, double tol = 2e-2) {
  model.zero_grad();
  const Tensor out = model.forward(input);
  model.backward(half_sq_grad(out));
  const tensor::FlatVec analytic_p = model.get_gradients();
  const tensor::FlatVec params = model.get_parameters();

  const double eps = 1e-3;
  // Parameter gradients (probe a strided subset for speed).
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 50);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    tensor::FlatVec p = params;
    p[i] = static_cast<float>(p[i] + eps);
    model.set_parameters(p);
    const double up = half_sq(model.forward(input));
    p[i] = static_cast<float>(p[i] - 2 * eps);
    model.set_parameters(p);
    const double down = half_sq(model.forward(input));
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_p[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << "param index " << i;
  }
  model.set_parameters(params);
}

TEST(Dense, ForwardKnownValues) {
  Dense d(2, 2);
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5].
  auto p = d.parameters();
  p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 4; p[4] = 0.5f; p[5] = -0.5f;
  Tensor x({1, 2}, {1.0f, 1.0f});
  const Tensor y = d.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 2}));
  EXPECT_NEAR(y[0], 3.5f, 1e-6);  // 1+2+0.5
  EXPECT_NEAR(y[1], 6.5f, 1e-6);  // 3+4-0.5
}

TEST(Dense, RejectsWrongInput) {
  Dense d(3, 2);
  Tensor bad({1, 4});
  EXPECT_THROW(d.forward(bad), std::invalid_argument);
  EXPECT_THROW(Dense(0, 1), std::invalid_argument);
}

TEST(Dense, GradientCheck) {
  stats::Rng rng(1);
  Model m;
  m.add(std::make_unique<Dense>(4, 3));
  m.init(rng);
  Tensor x({2, 4});
  for (auto& v : x.storage()) v = static_cast<float>(rng.normal());
  check_gradients(m, x);
}

TEST(Relu, ForwardBackward) {
  Relu r;
  Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = r.forward(x);
  EXPECT_EQ(y.storage(), (std::vector<float>{0, 0, 2, 0}));
  Tensor g({1, 4}, {1, 1, 1, 1});
  const Tensor gi = r.backward(g);
  EXPECT_EQ(gi.storage(), (std::vector<float>{0, 0, 1, 0}));
}

TEST(Conv2d, OutputShape) {
  Conv2d c(1, 2, 3, 1);  // pad 1 keeps spatial dims
  Tensor x({2, 1, 8, 8});
  const Tensor y = c.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 2, 8, 8}));
  Conv2d valid(1, 1, 3, 0);
  EXPECT_EQ(valid.forward(x).shape(), (std::vector<std::size_t>{2, 1, 6, 6}));
}

TEST(Conv2d, KnownConvolution) {
  Conv2d c(1, 1, 2, 0);
  auto p = c.parameters();
  // Kernel = [[1, 0], [0, 1]] (trace), bias 0.
  p[0] = 1; p[1] = 0; p[2] = 0; p[3] = 1; p[4] = 0;
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = c.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_NEAR(y[0], 5.0f, 1e-6);  // 1 + 4
}

TEST(Conv2d, GradientCheck) {
  stats::Rng rng(2);
  Model m;
  m.add(std::make_unique<Conv2d>(1, 2, 3, 1));
  m.init(rng);
  Tensor x({1, 1, 6, 6});
  for (auto& v : x.storage()) v = static_cast<float>(rng.normal());
  check_gradients(m, x);
}

// --- Conv2d column reuse: a tagged forward leaves its im2col matrix for
// the backward of the same tag. Whatever runs in between, gradients must
// be bit-identical to an uninterrupted forward -> backward.

Tensor random_tensor(stats::Rng& rng, std::vector<std::size_t> shape) {
  Tensor t(std::move(shape));
  for (auto& v : t.storage()) v = static_cast<float>(rng.normal());
  return t;
}

struct ConvGrads {
  std::vector<float> params;  // gw | gb
  std::vector<float> input;   // gi
};

ConvGrads backward_grads(Conv2d& layer, const Tensor& go) {
  const Tensor gi = layer.backward(go);
  const auto g = layer.gradients();
  return {{g.begin(), g.end()}, gi.storage()};
}

// Gradients of one uninterrupted forward -> backward of `layer`'s
// parameters on `input`, from a separately constructed layer so the
// reference never touches `layer`'s cache entries or id.
ConvGrads reference_grads(Conv2d& layer, std::size_t cin, std::size_t cout,
                          const Tensor& input, const Tensor& go) {
  Conv2d twin(cin, cout, 3, 1);
  const auto p = layer.parameters();
  std::copy(p.begin(), p.end(), twin.parameters().begin());
  (void)twin.forward(input);
  return backward_grads(twin, go);
}

void expect_same_bits(const ConvGrads& got, const ConvGrads& want) {
  ASSERT_EQ(got.params.size(), want.params.size());
  ASSERT_EQ(got.input.size(), want.input.size());
  EXPECT_EQ(0, std::memcmp(got.params.data(), want.params.data(),
                           want.params.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(got.input.data(), want.input.data(),
                           want.input.size() * sizeof(float)));
}

TEST(Conv2d, ColumnReuseSurvivesInterveningForwards) {
  stats::Rng rng(9);
  Conv2d layer(2, 3, 3, 1);
  layer.init(rng);
  const Tensor x = random_tensor(rng, {4, 2, 8, 8});
  const Tensor other_x = random_tensor(rng, {4, 2, 8, 8});
  const Tensor go = random_tensor(rng, {4, 3, 8, 8});

  const ConvGrads want = reference_grads(layer, 2, 3, x, go);

  Conv2d same_shape(2, 3, 3, 1);
  same_shape.init(rng);
  auto clone = layer.clone();
  const std::pair<const char*, std::function<void()>> between[] = {
      {"nothing", [] {}},
      {"another same-shape layer's forward",
       [&] { (void)same_shape.forward(other_x); }},
      {"a clone's forward on another input",
       [&] { (void)clone->forward(other_x); }},
      {"enough forwards to evict the entry",
       [&] {
         for (std::size_t i = 0; i <= kernels::ColumnCache::kEntries; ++i) {
           (void)same_shape.forward(other_x);
         }
       }},
  };
  for (const auto& [what, run] : between) {
    SCOPED_TRACE(what);
    layer.zero_grad();
    (void)layer.forward(x);
    run();
    expect_same_bits(backward_grads(layer, go), want);
  }
}

// A clone takes a fresh layer id: the original and its clone each read
// back their own input's columns even when their forward counts agree.
TEST(Conv2d, ClonesNeverShareCachedColumns) {
  stats::Rng rng(11);
  Conv2d layer(2, 3, 3, 1);
  layer.init(rng);
  auto clone = layer.clone();
  const Tensor x = random_tensor(rng, {2, 2, 8, 8});
  const Tensor y = random_tensor(rng, {2, 2, 8, 8});
  const Tensor go = random_tensor(rng, {2, 3, 8, 8});
  const ConvGrads want_x = reference_grads(layer, 2, 3, x, go);
  const ConvGrads want_y = reference_grads(layer, 2, 3, y, go);

  (void)layer.forward(x);
  (void)clone->forward(y);
  expect_same_bits(backward_grads(static_cast<Conv2d&>(*clone), go), want_y);
  expect_same_bits(backward_grads(layer, go), want_x);
}

// A second forward of the same layer replaces the cached input, and a
// backward on a thread that never saw the forward lowers it afresh.
TEST(Conv2d, ColumnReuseFollowsTheLatestForwardAndThread) {
  stats::Rng rng(10);
  Conv2d layer(1, 4, 3, 1);
  layer.init(rng);
  const Tensor x = random_tensor(rng, {3, 1, 16, 16});
  const Tensor stale = random_tensor(rng, {3, 1, 16, 16});
  const Tensor go = random_tensor(rng, {3, 4, 16, 16});
  const ConvGrads want = reference_grads(layer, 1, 4, x, go);

  (void)layer.forward(stale);
  (void)layer.forward(x);
  expect_same_bits(backward_grads(layer, go), want);

  layer.zero_grad();
  (void)layer.forward(x);
  ConvGrads got;
  std::thread([&] { got = backward_grads(layer, go); }).join();
  expect_same_bits(got, want);
}

TEST(MaxPool2d, ForwardSelectsMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, {2.0f});
  const Tensor gi = pool.backward(g);
  EXPECT_EQ(gi.storage(), (std::vector<float>{0, 2, 0, 0}));
}

TEST(MaxPool2d, RejectsOddDims) {
  MaxPool2d pool;
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

// The scalar tournament MaxPool2d used before its loops moved into the
// kernels library, kept as the oracle: size_t argmax, strict >, first
// candidate wins in (0,0) (0,1) (1,0) (1,1) order.
void oracle_pool_forward(const std::vector<float>& in, std::size_t planes,
                         std::size_t h, std::size_t w, std::vector<float>& out,
                         std::vector<std::size_t>& argmax) {
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  out.assign(planes * oh * ow, 0.0f);
  argmax.assign(out.size(), 0);
  for (std::size_t plane = 0; plane < planes; ++plane) {
    const std::size_t pbase = plane * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* r0 = in.data() + pbase + 2 * oy * w;
      const float* r1 = r0 + w;
      const std::size_t rbase = pbase + 2 * oy * w;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t x = 2 * ox;
        const float m0 = r0[x + 1] > r0[x] ? r0[x + 1] : r0[x];
        const std::size_t i0 = r0[x + 1] > r0[x] ? x + 1 : x;
        const float m1 = r1[x + 1] > r1[x] ? r1[x + 1] : r1[x];
        const std::size_t i1 = w + (r1[x + 1] > r1[x] ? x + 1 : x);
        const std::size_t o = (plane * oh + oy) * ow + ox;
        out[o] = m1 > m0 ? m1 : m0;
        argmax[o] = rbase + (m1 > m0 ? i1 : i0);
      }
    }
  }
}

void expect_pool_matches_oracle(const Tensor& x, const Tensor& go) {
  const auto& s = x.shape();
  std::vector<float> want_out;
  std::vector<std::size_t> argmax;
  oracle_pool_forward(x.storage(), s[0] * s[1], s[2], s[3], want_out, argmax);
  std::vector<float> want_gi(x.size(), 0.0f);
  for (std::size_t i = 0; i < argmax.size(); ++i) want_gi[argmax[i]] += go[i];

  MaxPool2d pool;
  const Tensor out = pool.forward(x);
  ASSERT_EQ(out.size(), want_out.size());
  EXPECT_EQ(0, std::memcmp(out.storage().data(), want_out.data(),
                           want_out.size() * sizeof(float)));
  const Tensor gi = pool.backward(go);
  ASSERT_EQ(gi.size(), want_gi.size());
  EXPECT_EQ(0, std::memcmp(gi.storage().data(), want_gi.data(),
                           want_gi.size() * sizeof(float)));
}

// Values from a tiny set, so most windows hold ties, plus +-0 and NaN.
TEST(MaxPool2d, MatchesScalarTournamentBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float pool_values[] = {-1.0f, -0.0f, 0.0f, 1.0f, 2.0f};
  stats::Rng rng(12);
  auto draw = [&](bool with_nan) {
    if (with_nan && rng.uniform_int(20) == 0) return nan;
    return pool_values[rng.uniform_int(5)];
  };
  // w = 2, 6, 10 leave ow % 4 != 0 (scalar tail), 16 is all SIMD.
  for (const std::size_t w : {2ul, 6ul, 10ul, 16ul}) {
    for (const std::size_t h : {2ul, 4ul, 6ul}) {
      for (const std::size_t batch : {1ul, 3ul}) {
        for (const std::size_t c : {1ul, 2ul, 5ul}) {
          for (const bool with_nan : {false, true}) {
            SCOPED_TRACE(testing::Message() << "b=" << batch << " c=" << c
                                            << " h=" << h << " w=" << w
                                            << " nan=" << with_nan);
            Tensor x({batch, c, h, w});
            for (auto& v : x.storage()) v = draw(with_nan);
            Tensor go({batch, c, h / 2, w / 2});
            for (auto& v : go.storage()) v = draw(false);
            expect_pool_matches_oracle(x, go);
          }
        }
      }
    }
  }
}

// Every window over {-1, -0, +0, 1, NaN}^4, laid out once across a wide
// row (SIMD lanes, last window in the tail) and once down a w = 2 column
// (every window in the tail).
TEST(MaxPool2d, EveryWindowOfTiesZerosAndNaNMatchesTheOracle) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float values[] = {-1.0f, -0.0f, 0.0f, 1.0f, nan};
  constexpr std::size_t kWindows = 5 * 5 * 5 * 5;
  Tensor wide({1, 1, 2, 2 * kWindows});
  Tensor tall({1, 1, 2 * kWindows, 2});
  Tensor go({1, 1, 1, kWindows});
  for (std::size_t i = 0; i < kWindows; ++i) {
    const float a = values[i % 5];
    const float b = values[i / 5 % 5];
    const float c = values[i / 25 % 5];
    const float d = values[i / 125];
    wide.storage()[2 * i] = a;
    wide.storage()[2 * i + 1] = b;
    wide.storage()[2 * kWindows + 2 * i] = c;
    wide.storage()[2 * kWindows + 2 * i + 1] = d;
    tall.storage()[4 * i] = a;
    tall.storage()[4 * i + 1] = b;
    tall.storage()[4 * i + 2] = c;
    tall.storage()[4 * i + 3] = d;
    go.storage()[i] = i % 7 == 0 ? -0.0f : static_cast<float>(i) - 300.0f;
  }
  expect_pool_matches_oracle(wide, go);
  expect_pool_matches_oracle(tall,
                             Tensor({1, 1, kWindows, 1}, go.storage()));
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4});
  const Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  const Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Model, ParameterRoundTrip) {
  stats::Rng rng(3);
  Model m = make_mlp_head({.input_dim = 8, .hidden = 6, .num_classes = 3,
                           .num_hidden_layers = 2});
  m.init(rng);
  const tensor::FlatVec p = m.get_parameters();
  EXPECT_EQ(p.size(), m.num_parameters());
  tensor::FlatVec changed = p;
  for (auto& v : changed) v += 1.0f;
  m.set_parameters(changed);
  EXPECT_EQ(m.get_parameters(), changed);
  EXPECT_THROW(m.set_parameters(std::vector<float>(3)),
               std::invalid_argument);
}

TEST(Model, CopyIsDeep) {
  stats::Rng rng(4);
  Model a = make_mlp_head({.input_dim = 4, .hidden = 4, .num_classes = 2,
                           .num_hidden_layers = 1});
  a.init(rng);
  Model b = a;
  tensor::FlatVec pb = b.get_parameters();
  pb[0] += 10.0f;
  b.set_parameters(pb);
  EXPECT_NE(a.get_parameters()[0], b.get_parameters()[0]);
}

TEST(Model, LeNetShapesAndGradients) {
  stats::Rng rng(5);
  Model m = make_lenet_small({.height = 8,
                              .width = 8,
                              .num_classes = 4,
                              .conv1_channels = 2,
                              .conv2_channels = 3,
                              .hidden = 8});
  m.init(rng);
  Tensor x({1, 1, 8, 8});
  for (auto& v : x.storage()) v = static_cast<float>(rng.uniform());
  const Tensor y = m.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 4}));
  check_gradients(m, x, 5e-2);
}

TEST(Model, SgdStepMovesAgainstGradient) {
  stats::Rng rng(6);
  Model m;
  m.add(std::make_unique<Dense>(2, 1));
  m.init(rng);
  Tensor x({1, 2}, {1.0f, 1.0f});
  m.zero_grad();
  const Tensor out = m.forward(x);
  m.backward(half_sq_grad(out));
  const double before = half_sq(m.forward(x));
  m.sgd_step(0.05);
  const double after = half_sq(m.forward(x));
  EXPECT_LT(after, before);
}

TEST(Model, ZooRejectsBadConfigs) {
  EXPECT_THROW(make_lenet_small({.height = 10, .width = 8}),
               std::invalid_argument);
  EXPECT_THROW(make_mlp_head({.num_hidden_layers = 0}), std::invalid_argument);
}

TEST(Zoo, LeNetDefaultMatchesImageSubstrate) {
  // The default LeNet must accept the default synthetic image shape.
  stats::Rng rng(7);
  Model m = make_lenet_small({});
  m.init(rng);
  Tensor x({1, 1, 16, 16});
  EXPECT_EQ(m.forward(x).shape(), (std::vector<std::size_t>{1, 10}));
}

}  // namespace
}  // namespace collapois::nn
