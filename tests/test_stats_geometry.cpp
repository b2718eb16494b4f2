// Tests for flat-vector geometry: the angle machinery behind Theorem 1
// and Figs. 3/6.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/geometry.h"
#include "stats/rng.h"

namespace collapois::stats {
namespace {

TEST(Geometry, DotAndNorm) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(dot(std::span<const float>(a), b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(l2_norm(std::span<const float>(a)),
                   std::sqrt(1.0 + 4.0 + 9.0));
}

TEST(Geometry, DotRejectsSizeMismatch) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  EXPECT_THROW(dot(std::span<const float>(a), b), std::invalid_argument);
}

TEST(Geometry, L2Distance) {
  const std::vector<float> a = {0.0f, 0.0f};
  const std::vector<float> b = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(l2_distance(std::span<const float>(a), b), 5.0);
}

TEST(Geometry, CosineOfParallelAndOrthogonal) {
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> x2 = {2.0f, 0.0f};
  const std::vector<float> y = {0.0f, 3.0f};
  const std::vector<float> neg = {-1.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), x2), 1.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), y), 0.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), neg), -1.0, 1e-9);
}

TEST(Geometry, CosineOfZeroVectorIsZero) {
  const std::vector<float> z = {0.0f, 0.0f};
  const std::vector<float> x = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(std::span<const float>(z), x), 0.0);
}

TEST(Geometry, AngleValues) {
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> d = {1.0f, 1.0f};
  const std::vector<float> y = {0.0f, 1.0f};
  const std::vector<float> neg = {-1.0f, 0.0f};
  EXPECT_NEAR(angle_between(std::span<const float>(x), d), M_PI / 4.0, 1e-6);
  EXPECT_NEAR(angle_between(std::span<const float>(x), y), M_PI / 2.0, 1e-6);
  EXPECT_NEAR(angle_between(std::span<const float>(x), neg), M_PI, 1e-6);
}

TEST(Geometry, DoubleOverloads) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {2.0, 4.0};
  EXPECT_NEAR(cosine_similarity(std::span<const double>(a), b), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(l2_norm(std::span<const double>(a)), std::sqrt(5.0));
}

TEST(Geometry, PairwiseAnglesCountAndValues) {
  const std::vector<std::vector<float>> vs = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 0.0f}};
  const auto angles = pairwise_angles(vs);
  ASSERT_EQ(angles.size(), 3u);  // C(3,2)
  EXPECT_NEAR(angles[0], M_PI / 2.0, 1e-6);  // v0 vs v1
  EXPECT_NEAR(angles[1], 0.0, 1e-6);         // v0 vs v2
  EXPECT_NEAR(angles[2], M_PI / 2.0, 1e-6);  // v1 vs v2
}

TEST(Geometry, PairwiseAnglesDegenerate) {
  EXPECT_TRUE(pairwise_angles({}).empty());
  EXPECT_TRUE(pairwise_angles({{1.0f}}).empty());
}

// pairwise_angles computes each norm once; every angle must still equal
// the per-pair definition acos(cosine_similarity) — which angle_between
// must match too — bit for bit, zero vectors (angle pi/2) and a
// NaN-carrying vector included.
TEST(Geometry, PairwiseAnglesMatchPerPairAngleBetweenBitForBit) {
  const auto oracle = [](std::span<const float> a, std::span<const float> b) {
    return std::bit_cast<std::uint64_t>(std::acos(cosine_similarity(a, b)));
  };
  Rng rng(2025);
  for (std::size_t n = 2; n <= 40; ++n) {
    SCOPED_TRACE(n);
    const std::size_t d = 1 + n % 9;
    std::vector<std::vector<float>> vs(n, std::vector<float>(d, 0.0f));
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 3) continue;  // an all-zero vector
      for (float& x : vs[i]) x = static_cast<float>(rng.normal());
    }
    if (n % 13 == 0) vs[n / 2][0] = std::numeric_limits<float>::quiet_NaN();
    // Two parallel vectors: the clamp edge at cos = 1.
    vs[n - 1] = vs[0];

    const auto got = pairwise_angles(vs);
    ASSERT_EQ(got.size(), n * (n - 1) / 2);
    std::size_t k = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++k) {
        const std::uint64_t want = oracle(vs[i], vs[j]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]), want)
            << "pair " << i << "," << j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(angle_between(vs[i], vs[j])),
                  want);
      }
    }
    const auto to_ref = angles_to_reference(vs, vs[1]);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(to_ref[i]),
                oracle(vs[i], vs[1]));
    }
  }
}

TEST(Geometry, AnglesToReference) {
  const std::vector<std::vector<float>> vs = {{1.0f, 0.0f}, {0.0f, 2.0f}};
  const std::vector<float> ref = {1.0f, 0.0f};
  const auto angles = angles_to_reference(vs, ref);
  ASSERT_EQ(angles.size(), 2u);
  EXPECT_NEAR(angles[0], 0.0, 1e-6);
  EXPECT_NEAR(angles[1], M_PI / 2.0, 1e-6);
}

}  // namespace
}  // namespace collapois::stats
