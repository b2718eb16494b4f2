// Property tests for the defense-kernel registry (defense/defense_kernels.h):
// the fast set must match the naive reference exactly for the
// coordinate-wise ops (median, trimmed mean, RLR, sign vote), match within
// a Gram-identity cancellation tolerance with stable selection ranks for
// the pairwise-distance consumers (Krum, FLARE), and be bit-identical
// across thread counts. A pair of small end-to-end simulations pins the
// fast-vs-naive contract at the experiment level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "data/synthetic_text.h"
#include "defense/defense_kernels.h"
#include "kernels/cpu_dispatch.h"
#include "nn/zoo.h"
#include "defense/flare.h"
#include "defense/krum.h"
#include "defense/median.h"
#include "defense/rlr.h"
#include "fl/client.h"
#include "fl/update_matrix.h"
#include "runtime/thread_pool.h"
#include "sim/runner.h"
#include "stats/rng.h"

namespace collapois::defense {
namespace {

std::vector<fl::ClientUpdate> random_updates(std::size_t n, std::size_t d,
                                             std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<fl::ClientUpdate> updates(n);
  for (std::size_t i = 0; i < n; ++i) {
    updates[i].client_id = i;
    updates[i].delta.resize(d);
    for (auto& v : updates[i].delta) {
      v = static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  return updates;
}

// Updates with heavy value duplication: every coordinate is drawn from
// {-1, 0, 1}, so columns are full of exact ties (the adversarial case for
// median / trimmed-mean selection and sign votes).
std::vector<fl::ClientUpdate> tied_updates(std::size_t n, std::size_t d,
                                           std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<fl::ClientUpdate> updates(n);
  for (std::size_t i = 0; i < n; ++i) {
    updates[i].client_id = i;
    updates[i].delta.resize(d);
    for (auto& v : updates[i].delta) {
      const double u = rng.uniform();
      v = (u < 1.0 / 3.0) ? -1.0f : (u < 2.0 / 3.0 ? 0.0f : 1.0f);
    }
  }
  return updates;
}

// (n, d) shapes covering the edge cases: a single update, a pair (even n),
// odd n, d below / straddling / above the 128-coordinate tile width, and a
// shape big enough that the gram path tiles in both directions.
// The two n > 128 shapes (one even, one odd) cross fast_median's
// sorting-network-to-selection cutoff, so both of its paths are swept.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {1, 7}, {2, 5},  {3, 64},  {4, 130},
    {5, 1}, {6, 257}, {9, 128}, {70, 333},
    {130, 40}, {151, 97},
};

void expect_pairwise_close(const fl::UpdateMatrix& m,
                           const std::vector<double>& naive,
                           const std::vector<double>& fast) {
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // The Gram identity cancels catastrophically for near-identical
      // rows, so the tolerance scales with the norms, not the distance.
      const double tol =
          1e-4 * (m.row_sqnorm(i) + m.row_sqnorm(j)) + 1e-9;
      EXPECT_NEAR(fast[i * n + j], naive[i * n + j], tol)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(DefenseKernelRegistry, NamesAndOpTables) {
  EXPECT_STREQ(defense_impl_name(DefenseImpl::fast), "fast");
  EXPECT_STREQ(defense_impl_name(DefenseImpl::naive), "naive");
  EXPECT_STREQ(defense_ops_for(DefenseImpl::fast).name, "fast");
  EXPECT_STREQ(defense_ops_for(DefenseImpl::naive).name, "naive");
}

TEST(DefenseKernelRegistry, ActiveImplSwitches) {
  const DefenseImpl before = active_defense_impl();
  set_active_defense_impl(DefenseImpl::naive);
  EXPECT_EQ(active_defense_impl(), DefenseImpl::naive);
  EXPECT_STREQ(defense_ops().name, "naive");
  set_active_defense_impl(DefenseImpl::fast);
  EXPECT_EQ(active_defense_impl(), DefenseImpl::fast);
  EXPECT_STREQ(defense_ops().name, "fast");
  set_active_defense_impl(before);
}

TEST(DefenseKernelProperty, PairwiseDistancesMatchNaiveWithinTolerance) {
  const auto& naive_ops = defense_ops_for(DefenseImpl::naive);
  const auto& fast_ops = defense_ops_for(DefenseImpl::fast);
  for (const auto& [n, d] : kShapes) {
    const fl::UpdateMatrix m(random_updates(n, d, 1000 + n * 13 + d));
    std::vector<double> ref(n * n);
    std::vector<double> got(n * n);
    naive_ops.pairwise_sq_dists(m, ref.data(), nullptr);
    fast_ops.pairwise_sq_dists(m, got.data(), nullptr);
    expect_pairwise_close(m, ref, got);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i * n + i], 0.0) << "diagonal " << i;
    }
  }
}

TEST(DefenseKernelProperty, PairwiseNearDuplicateRowsStayNonNegative) {
  // Rows that differ only in the last coordinate by 1e-3: worst-case
  // cancellation for the Gram identity (true distances sit far below the
  // float-GEMM rounding floor of ~1e-4 * ||a||^2, so ranks are NOT
  // promised here — only the zero clamp and the documented tolerance).
  std::vector<fl::ClientUpdate> updates(4);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    updates[i].delta.assign(200, 2.5f);
    updates[i].delta.back() = 2.5f + 1e-3f * static_cast<float>(i);
  }
  const fl::UpdateMatrix m(updates);
  const std::size_t n = m.rows();
  std::vector<double> ref(n * n);
  std::vector<double> got(n * n);
  defense_ops_for(DefenseImpl::naive).pairwise_sq_dists(m, ref.data(),
                                                        nullptr);
  defense_ops_for(DefenseImpl::fast).pairwise_sq_dists(m, got.data(), nullptr);
  for (double v : got) EXPECT_GE(v, 0.0);
  expect_pairwise_close(m, ref, got);
}

TEST(DefenseKernelProperty, PairwiseRanksSurviveWhenGapsExceedTolerance) {
  // Distance gaps well above the rounding tolerance: selection ranks must
  // match the reference (what Krum/FLARE actually rely on).
  std::vector<fl::ClientUpdate> updates(5);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    updates[i].delta.assign(300, 1.0f);
    updates[i].delta.back() = 1.0f + 2.0f * static_cast<float>(i);
  }
  const fl::UpdateMatrix m(updates);
  const std::size_t n = m.rows();
  std::vector<double> got(n * n);
  defense_ops_for(DefenseImpl::fast).pairwise_sq_dists(m, got.data(), nullptr);
  for (std::size_t j = 2; j < n; ++j) {
    EXPECT_LT(got[0 * n + (j - 1)], got[0 * n + j]) << "rank flip at " << j;
  }
}

TEST(DefenseKernelProperty, CoordinateOpsBitIdenticalToNaive) {
  const auto& naive_ops = defense_ops_for(DefenseImpl::naive);
  const auto& fast_ops = defense_ops_for(DefenseImpl::fast);
  for (const auto& [n, d] : kShapes) {
    for (const bool ties : {false, true}) {
      const auto updates = ties ? tied_updates(n, d, 7 + n + d)
                                : random_updates(n, d, 7 + n + d);
      const fl::UpdateMatrix m(updates);
      std::vector<float> ref(d);
      std::vector<float> got(d);

      naive_ops.coord_median(m, ref.data(), nullptr);
      fast_ops.coord_median(m, got.data(), nullptr);
      EXPECT_EQ(ref, got) << "median n=" << n << " d=" << d;

      for (const std::size_t trim : {std::size_t{0}, std::size_t{1},
                                     (n > std::size_t{1}) ? n / 2 : 0}) {
        naive_ops.trimmed_mean(m, trim, ref.data(), nullptr);
        fast_ops.trimmed_mean(m, trim, got.data(), nullptr);
        EXPECT_EQ(ref, got) << "trimmed n=" << n << " d=" << d
                            << " trim=" << trim;
      }

      naive_ops.rlr_vote(m, 2.0, ref.data(), nullptr);
      fast_ops.rlr_vote(m, 2.0, got.data(), nullptr);
      EXPECT_EQ(ref, got) << "rlr n=" << n << " d=" << d;

      naive_ops.sign_vote(m, 0.01, ref.data(), nullptr);
      fast_ops.sign_vote(m, 0.01, got.data(), nullptr);
      EXPECT_EQ(ref, got) << "sign n=" << n << " d=" << d;
    }
  }
}

// --- runtime ISA dispatch: every tier must honor the same contracts ----

struct TierGuard {
  kernels::IsaTier entry = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(entry); }
};

// The exact-equality contract holds on EVERY tier, not just the default:
// the SIMD column tiles keep per-lane op order identical to the naive
// per-column rules. kShapes stresses the ragged tail (d % 8 != 0 drops
// into the padded-gather path), n=1, even n, and the tied_updates
// generator drives the sorting networks and sign votes through exact
// duplicates.
TEST(DefenseKernelDispatch, CoordinateOpsMatchNaiveExactlyOnEveryTier) {
  TierGuard guard;
  const auto& naive_ops = defense_ops_for(DefenseImpl::naive);
  const auto& fast_ops = defense_ops_for(DefenseImpl::fast);
  for (const auto tier : kernels::available_tiers()) {
    kernels::set_active_tier(tier);
    for (const auto& [n, d] : kShapes) {
      for (const bool ties : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << kernels::isa_tier_name(tier) << " n=" << n
                     << " d=" << d << (ties ? " ties" : ""));
        const auto updates = ties ? tied_updates(n, d, 7 + n + d)
                                  : random_updates(n, d, 7 + n + d);
        const fl::UpdateMatrix m(updates);
        std::vector<float> ref(d);
        std::vector<float> got(d);

        naive_ops.coord_median(m, ref.data(), nullptr);
        fast_ops.coord_median(m, got.data(), nullptr);
        EXPECT_EQ(ref, got) << "median";

        for (const std::size_t trim : {std::size_t{0}, std::size_t{1},
                                       (n > std::size_t{1}) ? n / 2 : 0}) {
          naive_ops.trimmed_mean(m, trim, ref.data(), nullptr);
          fast_ops.trimmed_mean(m, trim, got.data(), nullptr);
          EXPECT_EQ(ref, got) << "trimmed trim=" << trim;
        }

        naive_ops.rlr_vote(m, 2.0, ref.data(), nullptr);
        fast_ops.rlr_vote(m, 2.0, got.data(), nullptr);
        EXPECT_EQ(ref, got) << "rlr";

        naive_ops.sign_vote(m, 0.01, ref.data(), nullptr);
        fast_ops.sign_vote(m, 0.01, got.data(), nullptr);
        EXPECT_EQ(ref, got) << "sign";
      }
    }
  }
}

// Across tiers the coordinate outputs are BIT-identical (memcmp, not just
// float ==): the scalar tile mirrors the SIMD min/max and mask semantics
// lane for lane. This is the property that lets a checkpointed coordinate
// trajectory resume on any host.
TEST(DefenseKernelDispatch, CoordinateOpsBitIdenticalAcrossTiers) {
  TierGuard guard;
  const auto& fast_ops = defense_ops_for(DefenseImpl::fast);
  for (const auto& [n, d] : kShapes) {
    const auto updates = tied_updates(n, d, 99 + n + d);
    const fl::UpdateMatrix m(updates);
    kernels::set_active_tier(kernels::IsaTier::scalar);
    std::vector<float> med0(d), trim0(d), rlr0(d), sign0(d);
    fast_ops.coord_median(m, med0.data(), nullptr);
    fast_ops.trimmed_mean(m, n > 2 ? 1 : 0, trim0.data(), nullptr);
    fast_ops.rlr_vote(m, 2.0, rlr0.data(), nullptr);
    fast_ops.sign_vote(m, 0.01, sign0.data(), nullptr);
    for (const auto tier : kernels::available_tiers()) {
      SCOPED_TRACE(testing::Message()
                   << kernels::isa_tier_name(tier) << " n=" << n << " d=" << d);
      kernels::set_active_tier(tier);
      std::vector<float> med(d), trim(d), rlr(d), sign(d);
      fast_ops.coord_median(m, med.data(), nullptr);
      fast_ops.trimmed_mean(m, n > 2 ? 1 : 0, trim.data(), nullptr);
      fast_ops.rlr_vote(m, 2.0, rlr.data(), nullptr);
      fast_ops.sign_vote(m, 0.01, sign.data(), nullptr);
      EXPECT_EQ(0, std::memcmp(med.data(), med0.data(), d * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(trim.data(), trim0.data(), d * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(rlr.data(), rlr0.data(), d * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(sign.data(), sign0.data(), d * sizeof(float)));
    }
  }
}

// Where RLR trajectories part across tiers. A Sentiment RLR campaign
// prints a different dist_to_x on avx2 and scalar after ~50 rounds; the
// vote is not the cause. The same cohort (here a one-update cohort, the
// round that first shows the gap) aggregates to the same bytes on every
// tier, while the local update a client computes on the MLP head already
// differs by FMA rounding in the Dense GEMMs. RLR's per-coordinate sign
// flip then amplifies that rounding until it reaches the printed digits.
TEST(DefenseKernelDispatch, RlrTiersPartInLocalTrainingNotInTheVote) {
  TierGuard guard;
  data::SyntheticTextGenerator gen({}, 51);
  stats::Rng data_rng(52);
  const std::vector<std::size_t> counts = {28, 28};
  const data::Dataset train = gen.generate(counts, data_rng);
  nn::Model arch = nn::make_mlp_head({});
  stats::Rng init_rng(53);
  arch.init(init_rng);
  const tensor::FlatVec global = arch.get_parameters();

  std::vector<tensor::FlatVec> updates;
  std::vector<tensor::FlatVec> aggregates;
  for (const auto tier : kernels::available_tiers()) {
    kernels::set_active_tier(tier);
    fl::BenignClient client(0, &train, arch, nn::SgdConfig{}, 0.5,
                            stats::Rng(54));
    fl::RoundContext ctx;
    ctx.global = global;
    std::vector<fl::ClientUpdate> cohort = {client.compute_update(ctx)};
    updates.push_back(cohort[0].delta);
    // Every tier votes on the first tier's update.
    cohort[0].delta = updates.front();
    RlrAggregator rlr(RlrConfig{});
    aggregates.push_back(rlr.aggregate(cohort, global));
  }
  for (std::size_t t = 1; t < updates.size(); ++t) {
    SCOPED_TRACE(kernels::isa_tier_name(kernels::available_tiers()[t]));
    ASSERT_EQ(aggregates[t].size(), aggregates[0].size());
    EXPECT_EQ(0, std::memcmp(aggregates[t].data(), aggregates[0].data(),
                             aggregates[0].size() * sizeof(float)));
    // The local updates agree to FMA rounding, not necessarily in bits.
    ASSERT_EQ(updates[t].size(), updates[0].size());
    int differing = 0;
    for (std::size_t j = 0; j < updates[0].size(); ++j) {
      EXPECT_NEAR(updates[t][j], updates[0][j],
                  1e-4 * (std::fabs(updates[0][j]) + 1e-3))
          << "coordinate " << j;
      if (updates[t][j] != updates[0][j]) ++differing;
    }
    RecordProperty("update_coordinates_differing", differing);
  }
}

// Pairwise distances ride the tier-dispatched GEMM, so every tier must
// stay inside the Gram cancellation tolerance against the naive loops.
TEST(DefenseKernelDispatch, PairwiseDistancesWithinToleranceOnEveryTier) {
  TierGuard guard;
  const auto& naive_ops = defense_ops_for(DefenseImpl::naive);
  const auto& fast_ops = defense_ops_for(DefenseImpl::fast);
  for (const auto& [n, d] : kShapes) {
    const fl::UpdateMatrix m(random_updates(n, d, 4000 + n * 13 + d));
    std::vector<double> ref(n * n);
    naive_ops.pairwise_sq_dists(m, ref.data(), nullptr);
    for (const auto tier : kernels::available_tiers()) {
      SCOPED_TRACE(testing::Message()
                   << kernels::isa_tier_name(tier) << " n=" << n << " d=" << d);
      kernels::set_active_tier(tier);
      std::vector<double> got(n * n);
      fast_ops.pairwise_sq_dists(m, got.data(), nullptr);
      expect_pairwise_close(m, ref, got);
    }
  }
}

TEST(DefenseKernelThreads, FastOpsBitIdenticalAcrossThreadCounts) {
  const auto& ops = defense_ops_for(DefenseImpl::fast);
  const fl::UpdateMatrix m(random_updates(24, 700, 2024));
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();

  std::vector<double> dist_ref(n * n);
  std::vector<float> med_ref(d), trim_ref(d), rlr_ref(d), sign_ref(d);
  ops.pairwise_sq_dists(m, dist_ref.data(), nullptr);
  ops.coord_median(m, med_ref.data(), nullptr);
  ops.trimmed_mean(m, 3, trim_ref.data(), nullptr);
  ops.rlr_vote(m, 4.0, rlr_ref.data(), nullptr);
  ops.sign_vote(m, 0.5, sign_ref.data(), nullptr);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    runtime::ThreadPool pool(workers);
    std::vector<double> dist(n * n);
    std::vector<float> med(d), trim(d), rlr(d), sign(d);
    ops.pairwise_sq_dists(m, dist.data(), &pool);
    ops.coord_median(m, med.data(), &pool);
    ops.trimmed_mean(m, 3, trim.data(), &pool);
    ops.rlr_vote(m, 4.0, rlr.data(), &pool);
    ops.sign_vote(m, 0.5, sign.data(), &pool);
    EXPECT_EQ(dist, dist_ref) << "workers=" << workers;
    EXPECT_EQ(med, med_ref) << "workers=" << workers;
    EXPECT_EQ(trim, trim_ref) << "workers=" << workers;
    EXPECT_EQ(rlr, rlr_ref) << "workers=" << workers;
    EXPECT_EQ(sign, sign_ref) << "workers=" << workers;
  }
}

// RAII: pin the process-wide impl for a scope, restore on exit.
struct ImplGuard {
  explicit ImplGuard(DefenseImpl impl) : saved(active_defense_impl()) {
    set_active_defense_impl(impl);
  }
  ~ImplGuard() { set_active_defense_impl(saved); }
  DefenseImpl saved;
};

TEST(DefenseKernelAggregator, KrumSelectionsStableAcrossImpls) {
  for (const auto& [n, d] : kShapes) {
    if (n < 2) continue;
    const auto updates = random_updates(n, d, 31 * n + d);
    // f spanning the n <= f + 2 degenerate branch as well.
    for (const std::size_t f : {std::size_t{0}, std::size_t{1}, n}) {
      KrumAggregator naive_krum(KrumConfig{f, 2});
      KrumAggregator fast_krum(KrumConfig{f, 2});
      tensor::FlatVec naive_out, fast_out;
      {
        ImplGuard g(DefenseImpl::naive);
        naive_out = naive_krum.aggregate(updates, {});
      }
      {
        ImplGuard g(DefenseImpl::fast);
        fast_out = fast_krum.aggregate(updates, {});
      }
      EXPECT_EQ(naive_krum.last_selected(), fast_krum.last_selected())
          << "n=" << n << " d=" << d << " f=" << f;
      // Same selections => the mean is over the same rows => bit-equal.
      EXPECT_EQ(naive_out, fast_out);
    }
  }
}

TEST(DefenseKernelAggregator, FlareTrustAndAggregateCloseAcrossImpls) {
  for (const auto& [n, d] : kShapes) {
    const auto updates = random_updates(n, d, 77 * n + d);
    FlareAggregator naive_flare(FlareConfig{1.0});
    FlareAggregator fast_flare(FlareConfig{1.0});
    tensor::FlatVec naive_out, fast_out;
    {
      ImplGuard g(DefenseImpl::naive);
      naive_out = naive_flare.aggregate(updates, {});
    }
    {
      ImplGuard g(DefenseImpl::fast);
      fast_out = fast_flare.aggregate(updates, {});
    }
    ASSERT_EQ(naive_flare.last_trust().size(), fast_flare.last_trust().size());
    for (std::size_t i = 0; i < naive_flare.last_trust().size(); ++i) {
      EXPECT_NEAR(fast_flare.last_trust()[i], naive_flare.last_trust()[i],
                  1e-4)
          << "trust " << i << " n=" << n << " d=" << d;
    }
    ASSERT_EQ(naive_out.size(), fast_out.size());
    for (std::size_t j = 0; j < naive_out.size(); ++j) {
      EXPECT_NEAR(fast_out[j], naive_out[j], 1e-4) << "coord " << j;
    }
  }
}

TEST(DefenseKernelAggregator, CoordinateAggregatorsBitIdenticalWithPool) {
  // The NVI entry point with a pool must agree bit-exactly with the
  // pool-less call for the coordinate-wise aggregators.
  const auto updates = random_updates(11, 450, 555);
  runtime::ThreadPool pool(4);
  CoordMedianAggregator median;
  TrimmedMeanAggregator trimmed(0.2);
  RlrAggregator rlr(RlrConfig{2.0});
  SignSgdAggregator sign(SignSgdConfig{0.01});
  EXPECT_EQ(median.aggregate(updates, {}, &pool), median.aggregate(updates, {}));
  EXPECT_EQ(trimmed.aggregate(updates, {}, &pool),
            trimmed.aggregate(updates, {}));
  EXPECT_EQ(rlr.aggregate(updates, {}, &pool), rlr.aggregate(updates, {}));
  EXPECT_EQ(sign.aggregate(updates, {}, &pool), sign.aggregate(updates, {}));
}

sim::ExperimentConfig defense_sim_config(DefenseKind defense) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 10;
  cfg.samples_per_client = 30;
  cfg.rounds = 6;
  cfg.sample_prob = 0.6;
  cfg.compromised_fraction = 0.2;
  cfg.attack = sim::AttackKind::collapois;
  cfg.attack_start_round = 2;
  cfg.defense = defense;
  cfg.eval_every = 0;
  cfg.seed = 4242;
  return cfg;
}

TEST(DefenseKernelSim, CoordMedianExperimentBitIdenticalAcrossImpls) {
  sim::ExperimentConfig cfg = defense_sim_config(DefenseKind::coord_median);
  cfg.defense_impl = DefenseImpl::naive;
  const auto ref = sim::run_experiment(cfg);
  cfg.defense_impl = DefenseImpl::fast;
  const auto fast = sim::run_experiment(cfg);
  EXPECT_EQ(ref.final_global, fast.final_global);
}

TEST(DefenseKernelSim, KrumExperimentBitIdenticalAcrossImpls) {
  // Krum's distances only pick rows; as long as the selections survive the
  // gram-vs-naive rounding (they do — real updates are nowhere near tied),
  // the aggregates, and hence the whole trajectory, are bit-equal.
  sim::ExperimentConfig cfg = defense_sim_config(DefenseKind::krum);
  cfg.defense_impl = DefenseImpl::naive;
  const auto ref = sim::run_experiment(cfg);
  cfg.defense_impl = DefenseImpl::fast;
  const auto fast = sim::run_experiment(cfg);
  EXPECT_EQ(ref.final_global, fast.final_global);
}

}  // namespace
}  // namespace collapois::defense
