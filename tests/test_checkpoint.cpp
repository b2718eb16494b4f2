// Checkpoint/resume determinism and server sampling edge cases.
//
// The headline property: a straight 2N-round experiment and an N-round
// run + checkpoint + N-round resume are BIT-IDENTICAL — final global
// params and every final client-level evaluation — across FedAvg,
// attacks, noise-adding defenses, FedDC drift state, and fault
// injection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "defense/registry.h"
#include "fl/server_algorithm.h"
#include "fl/state.h"
#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "nn/zoo.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"

namespace collapois {
namespace {

class TempFile {
 public:
  explicit TempFile(std::string name)
      : path_(::testing::TempDir() + std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(StateBuffer, RoundTripsEveryPrimitive) {
  stats::Rng rng(7);
  rng.normal();  // populate the Box-Muller cache
  fl::StateWriter w;
  w.write_u64(0xdeadbeefULL);
  w.write_double(-1.5e300);
  w.write_bool(true);
  w.write_floats(tensor::FlatVec{1.f, -2.5f, 3e-30f});
  w.write_bytes(std::vector<std::uint8_t>{9, 8, 7});
  w.write_rng(rng);

  fl::StateReader r(w.bytes());
  EXPECT_EQ(r.read_u64(), 0xdeadbeefULL);
  EXPECT_EQ(r.read_double(), -1.5e300);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_floats(), (tensor::FlatVec{1.f, -2.5f, 3e-30f}));
  EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  stats::Rng restored(0);
  r.read_rng(restored);
  EXPECT_TRUE(r.exhausted());
  // The restored stream continues identically, cached normal included.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rng.normal(), restored.normal());
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
  }
}

TEST(StateBuffer, ThrowsOnTruncatedBlob) {
  fl::StateWriter w;
  w.write_floats(tensor::FlatVec(10, 1.f));
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  fl::StateReader r(bytes);
  EXPECT_THROW(r.read_floats(), std::runtime_error);
}

// The byte-at-a-time writer loops the bulk-copy codec replaced, kept as
// the oracle for the documented little-endian format.
void oracle_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void oracle_floats(std::vector<std::uint8_t>& out,
                   std::span<const float> v) {
  oracle_u64(out, v.size());
  for (float x : v) {
    const auto bits = std::bit_cast<std::uint32_t>(x);
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
}

// Floats whose bits a lossy path would disturb: NaN payloads of both
// signs, quiet and signalling, ±0, subnormals, ±inf and the extremes.
tensor::FlatVec edge_floats(std::size_t n) {
  const std::uint32_t patterns[] = {
      0x7fc12345u, 0xffc00001u, 0x7f800001u, 0xff812345u, 0x00000000u,
      0x80000000u, 0x00000001u, 0x807fffffu, 0x7f800000u, 0xff800000u,
      0x7f7fffffu, 0x3fc00000u, 0xc0500000u};
  tensor::FlatVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::bit_cast<float>(patterns[i % std::size(patterns)] ^
                                static_cast<std::uint32_t>(i >> 4));
  }
  return v;
}

TEST(StateBuffer, BulkWriterMatchesTheByteLoopOracleAndReadsBackBits) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{2178}}) {
    SCOPED_TRACE(n);
    const tensor::FlatVec floats = edge_floats(n);
    const std::uint64_t word = 0x0123456789abcdefULL ^ n;
    const double dbl = std::bit_cast<double>(0xfff8000000000001ULL ^ n);

    fl::StateWriter w;
    w.write_u64(word);
    w.write_double(dbl);
    w.write_floats(floats);
    std::vector<std::uint8_t> expected;
    oracle_u64(expected, word);
    oracle_u64(expected, std::bit_cast<std::uint64_t>(dbl));
    oracle_floats(expected, floats);
    ASSERT_EQ(w.bytes(), expected);

    fl::StateReader r(w.bytes());
    EXPECT_EQ(r.read_u64(), word);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.read_double()),
              std::bit_cast<std::uint64_t>(dbl));
    const tensor::FlatVec back = r.read_floats();
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                std::bit_cast<std::uint32_t>(floats[i]))
          << "element " << i;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// A forged length prefix must not wrap the reader's bounds arithmetic:
// 4n for n >= 2^62 and pos + n for n near 2^64 both overflow a naive
// `pos + len > size` test.
TEST(StateBuffer, ForgedLengthsNearTheWordLimitThrowTruncation) {
  const auto blob = [](std::uint64_t forged_len) {
    fl::StateWriter w;
    w.write_u64(forged_len);
    w.write_u64(0);  // 8 bytes of body, far fewer than claimed
    return w.take();
  };
  const auto expect_truncation = [](auto read, const std::string& what) {
    try {
      read();
      FAIL() << what << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  };
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t two62 = std::uint64_t{1} << 62;
  for (std::uint64_t n : {two62, two62 + 1, 3 * two62 + 2, max}) {
    const auto bytes = blob(n);
    fl::StateReader r(bytes);
    expect_truncation([&r] { r.read_floats(); },
                      "float count " + std::to_string(n));
  }
  for (std::uint64_t n : {max, max - 7, max - 8}) {
    const auto bytes = blob(n);
    fl::StateReader r(bytes);
    expect_truncation([&r] { r.read_bytes(); },
                      "byte count " + std::to_string(n));
  }
}

TEST(CheckpointFile, RoundTripsAndValidates) {
  sim::Checkpoint ck;
  ck.fingerprint = 0x1234;
  ck.rounds_completed = 17;
  ck.run_rng = stats::Rng(3).state();
  ck.trojaned_model = {1.f, 2.f};
  ck.algo_state = {5, 6};
  const TempFile file("ckpt_roundtrip.bin");
  sim::save_checkpoint_file(file.path(), ck);
  const sim::Checkpoint loaded = sim::load_checkpoint_file(file.path());
  EXPECT_EQ(loaded.fingerprint, ck.fingerprint);
  EXPECT_EQ(loaded.rounds_completed, 17u);
  EXPECT_EQ(loaded.trojaned_model, ck.trojaned_model);
  EXPECT_EQ(loaded.algo_state, ck.algo_state);
  EXPECT_EQ(stats::Rng(3).state().s[0], loaded.run_rng.s[0]);

  EXPECT_THROW(sim::load_checkpoint_file(file.path() + ".missing"),
               std::runtime_error);
}

TEST(ConfigFingerprint, SeparatesRunsButNotRoundBudgets) {
  sim::ExperimentConfig a;
  sim::ExperimentConfig b = a;
  EXPECT_EQ(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b.rounds += 10;  // extending the budget is a supported resume
  EXPECT_EQ(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b.seed += 1;
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b = a;
  b.faults.dropout_prob = 0.2;
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));

  // Every other field that shapes the trajectory separates runs too.
  using Change = void (*)(sim::ExperimentConfig&);
#define CHANGE(expr) {#expr, [](sim::ExperimentConfig& c) { expr; }}
  const std::pair<const char*, Change> changes[] = {
      CHANGE(c.local_sgd.learning_rate *= 10),
      CHANGE(c.local_sgd.batch_size += 1),
      CHANGE(c.local_sgd.epochs += 1),
      CHANGE(c.local_sgd.weight_decay = 0.01),
      CHANGE(c.local_sgd.grad_clip = 1.0),
      CHANGE(c.defense_params.clip *= 2),
      CHANGE(c.defense_params.noise_std *= 2),
      CHANGE(c.defense_params.noise_multiplier *= 2),
      CHANGE(c.defense_params.assumed_byzantine += 1),
      CHANGE(c.defense_params.multi_k += 1),
      CHANGE(c.defense_params.trim_fraction = 0.1),
      CHANGE(c.defense_params.rlr_threshold += 1),
      CHANGE(c.defense_params.sign_step *= 2),
      CHANGE(c.defense_params.flare_temperature *= 2),
      CHANGE(c.defense_params.crfl_param_clip *= 2),
      CHANGE(c.defense_params.crfl_noise_std *= 2),
      CHANGE(c.defense_params.ditto_lambda *= 2),
      CHANGE(c.target_label = 3),
      CHANGE(c.aux_validation_only = true),
      CHANGE(c.feddc_penalty *= 2),
      CHANGE(c.metafed_distill_weight *= 2),
      CHANGE(c.collapois.psi_a = 0.8),
      CHANGE(c.collapois.psi_b = 0.95),
      CHANGE(c.collapois.clip = 1.0),
      CHANGE(c.collapois.tau = 0.5),
      CHANGE(c.collapois.blend_fraction = 0.3),
      CHANGE(c.collapois.mimic_benign_norm = true),
      CHANGE(c.dpois.target_label = 3),
      CHANGE(c.dpois.poison_fraction = 0.3),
      CHANGE(c.mrepl.boost = 5.0),
      CHANGE(c.mrepl.clip = 1.0),
      CHANGE(c.dba.target_label = 3),
      CHANGE(c.dba.poison_fraction = 0.3),
      CHANGE(c.trojan_train.target_label = 3),
      CHANGE(c.trojan_train.poison_fraction = 0.5),
      CHANGE(c.trojan_train.sgd.learning_rate *= 10),
      CHANGE(c.trojan_train.sgd.batch_size += 1),
      CHANGE(c.trojan_train.sgd.epochs += 1),
      CHANGE(c.trojan_train.sgd.weight_decay = 0.01),
      CHANGE(c.trojan_train.sgd.grad_clip = 1.0),
  };
#undef CHANGE
  for (const auto& [field, change] : changes) {
    b = a;
    change(b);
    EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b)) << field;
  }
}

TEST(ConfigFingerprint, SeparatesKernelSets) {
  // naive and blocked kernels round differently, so a checkpoint taken
  // under one set must not resume under the other (unlike threads, which
  // never changes numerics and is excluded from the fingerprint).
  sim::ExperimentConfig a;
  sim::ExperimentConfig b = a;
  b.kernels = kernels::KernelKind::naive;
  ASSERT_NE(a.kernels, b.kernels);
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));
}

TEST(ConfigFingerprint, IgnoresDispatchTier) {
  // The runtime ISA tier (kernels/cpu_dispatch.h) is deliberately NOT
  // part of the fingerprint: only the kernel KIND pins a trajectory, so
  // one binary can write a checkpoint on an AVX2 host and resume it on a
  // scalar-only host. Pin that by computing the fingerprint under every
  // available tier.
  sim::ExperimentConfig cfg;
  const kernels::IsaTier entry = kernels::active_tier();
  kernels::set_active_tier(kernels::IsaTier::scalar);
  const std::uint64_t scalar_fp = sim::config_fingerprint(cfg);
  kernels::set_active_tier(kernels::detected_tier());
  EXPECT_EQ(sim::config_fingerprint(cfg), scalar_fp);
  kernels::set_active_tier(entry);
}

// The cross-host regression the fingerprint exclusion promises: write a
// checkpoint under the host's best tier (AVX2 in CI), resume under the
// forced scalar tier, and demand bit identity with a straight scalar
// run. The config keeps every tier-dispatched float path on a bit-exact
// route: naive training kernels (not tier-dispatched) + a coordinate
// defense through the fast SIMD tiles (bit-exact across tiers by the
// DefenseKernelDispatch suites).
TEST(CheckpointResume, BitExactWhenTierChangesAcrossResume) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 8;
  cfg.samples_per_client = 30;
  cfg.rounds = 6;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.seed = 99;
  cfg.kernels = kernels::KernelKind::naive;
  cfg.defense = defense::DefenseKind::coord_median;
  cfg.defense_impl = defense::DefenseImpl::fast;

  const kernels::IsaTier entry = kernels::active_tier();
  const kernels::IsaTier best = kernels::detected_tier();

  // Straight run entirely on the scalar tier.
  kernels::set_active_tier(kernels::IsaTier::scalar);
  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  // Checkpoint half the run on the best tier the host has...
  kernels::set_active_tier(best);
  const TempFile file("ckpt_cross_tier.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = cfg.rounds / 2;
  (void)sim::run_experiment(cfg, save);

  // ...and resume it on the scalar tier.
  kernels::set_active_tier(kernels::IsaTier::scalar);
  sim::RunOptions resume;
  resume.checkpoint_load_path = file.path();
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
  kernels::set_active_tier(entry);

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);  // bit-exact
}

TEST(CheckpointFile, RejectsResumeUnderOtherKernelSet) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 8;
  cfg.samples_per_client = 30;
  cfg.rounds = 4;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.kernels = kernels::KernelKind::blocked;

  const TempFile file("ckpt_kernel_mismatch.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = 2;
  (void)sim::run_experiment(cfg, save);

  sim::RunOptions resume;
  resume.checkpoint_load_path = file.path();
  cfg.kernels = kernels::KernelKind::naive;
  EXPECT_THROW(sim::run_experiment(cfg, resume), std::invalid_argument);
  cfg.kernels = kernels::KernelKind::blocked;
  (void)sim::run_experiment(cfg, resume);  // same set resumes fine
}

// Run the experiment three ways and demand bit identity.
void expect_resume_bit_exact(sim::ExperimentConfig cfg,
                             const std::string& tag) {
  SCOPED_TRACE(tag);
  const TempFile file("ckpt_" + tag + ".bin");
  const std::size_t half = cfg.rounds / 2;

  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  sim::RunOptions first;
  first.checkpoint_save_path = file.path();
  first.checkpoint_round = half;
  const sim::ExperimentResult partial = sim::run_experiment(cfg, first);
  EXPECT_EQ(partial.rounds.size(), half);

  sim::RunOptions second;
  second.checkpoint_load_path = file.path();
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, second);

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);  // bit-exact
  ASSERT_EQ(resumed.final_evals.size(), straight.final_evals.size());
  for (std::size_t i = 0; i < straight.final_evals.size(); ++i) {
    EXPECT_EQ(resumed.final_evals[i].benign_ac,
              straight.final_evals[i].benign_ac);
    EXPECT_EQ(resumed.final_evals[i].attack_sr,
              straight.final_evals[i].attack_sr);
  }
  EXPECT_EQ(resumed.rounds.size(), cfg.rounds - half);
}

sim::ExperimentConfig small_config() {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 10;
  cfg.samples_per_client = 40;
  cfg.rounds = 16;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.seed = 77;
  return cfg;
}

TEST(CheckpointResume, BitExactFedAvgBenign) {
  expect_resume_bit_exact(small_config(), "fedavg_benign");
}

TEST(CheckpointResume, BitExactCollaPoisAcrossArming) {
  sim::ExperimentConfig cfg = small_config();
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = 0.2;
  // Checkpoint at rounds/2 = 8, after the round-6 arming: X must survive
  // the resume without retraining.
  cfg.attack_start_round = 6;
  expect_resume_bit_exact(cfg, "collapois_armed");
  // And before arming: the resumed run trains X itself.
  cfg.attack_start_round = 12;
  expect_resume_bit_exact(cfg, "collapois_unarmed");
}

TEST(CheckpointResume, BitExactFedDcDriftState) {
  sim::ExperimentConfig cfg = small_config();
  cfg.algorithm = sim::AlgorithmKind::feddc;
  expect_resume_bit_exact(cfg, "feddc");
}

TEST(CheckpointResume, BitExactUnderNoiseDefense) {
  sim::ExperimentConfig cfg = small_config();
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = 0.2;
  cfg.attack_start_round = 4;
  cfg.defense = defense::DefenseKind::norm_bound;
  expect_resume_bit_exact(cfg, "normbound_noise");
}

TEST(CheckpointResume, BitExactUnderFaultInjection) {
  sim::ExperimentConfig cfg = small_config();
  cfg.faults.dropout_prob = 0.2;
  cfg.faults.straggler_prob = 0.2;
  cfg.faults.corrupt_prob = 0.1;
  expect_resume_bit_exact(cfg, "faults");
}

TEST(CheckpointResume, RejectsMismatchedConfig) {
  sim::ExperimentConfig cfg = small_config();
  const TempFile file("ckpt_mismatch.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = 4;
  sim::run_experiment(cfg, save);

  sim::RunOptions load;
  load.checkpoint_load_path = file.path();
  sim::ExperimentConfig other = cfg;
  other.seed += 1;
  EXPECT_THROW(sim::run_experiment(other, load), std::invalid_argument);
}

// A checkpoint taken at round 3 must not resume under a 10x local
// learning rate, nor under another target label (moved on every copy, so
// the config itself stays valid): both change the trajectory.
TEST(CheckpointResume, RejectsChangedLearningRateOrTargetLabel) {
  sim::ExperimentConfig cfg = small_config();
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = 0.2;
  cfg.attack_start_round = 2;
  const TempFile file("ckpt_trajectory_fields.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = 3;
  (void)sim::run_experiment(cfg, save);

  sim::RunOptions load;
  load.checkpoint_load_path = file.path();
  auto expect_refused = [&](const sim::ExperimentConfig& changed) {
    try {
      (void)sim::run_experiment(changed, load);
      ADD_FAILURE() << "resume accepted a changed configuration";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("different experiment configuration"),
                std::string::npos)
          << e.what();
    }
  };
  sim::ExperimentConfig faster = cfg;
  faster.local_sgd.learning_rate *= 10;
  expect_refused(faster);

  sim::ExperimentConfig relabeled = cfg;
  relabeled.target_label = relabeled.trojan_train.target_label =
      relabeled.dpois.target_label = relabeled.dba.target_label = 1;
  expect_refused(relabeled);

  EXPECT_NO_THROW(sim::run_experiment(cfg, load));
}

// --- server sampling edge cases -----------------------------------------

namespace flns = collapois::fl;

class TinyClient : public flns::Client {
 public:
  explicit TinyClient(std::size_t id) : id_(id) {}
  std::size_t id() const override { return id_; }
  flns::ClientUpdate compute_update(const flns::RoundContext&) override {
    flns::ClientUpdate u;
    u.client_id = id_;
    u.delta = {0.1f};
    return u;
  }
  void distill_round(nn::Model&, nn::Model&) override {}

 private:
  std::size_t id_;
};

TEST(ServerSampling, FullParticipationAtProbabilityOne) {
  std::vector<std::unique_ptr<flns::Client>> owned;
  std::vector<flns::Client*> raw;
  for (std::size_t i = 0; i < 8; ++i) {
    owned.push_back(std::make_unique<TinyClient>(i));
    raw.push_back(owned.back().get());
  }
  flns::Server server({0.f}, std::make_unique<flns::FedAvgAggregator>(),
                      flns::ServerConfig{1.0, 1.0}, stats::Rng(1));
  for (int round = 0; round < 3; ++round) {
    const flns::RoundTelemetry t = server.run_round(raw);
    ASSERT_EQ(t.sampled_ids.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.sampled_ids[i], i);
  }
}

TEST(ServerSampling, EmptyCohortFallsBackToOneUniformClient) {
  std::vector<std::unique_ptr<flns::Client>> owned;
  std::vector<flns::Client*> raw;
  for (std::size_t i = 0; i < 8; ++i) {
    owned.push_back(std::make_unique<TinyClient>(i));
    raw.push_back(owned.back().get());
  }
  flns::Server server({0.f}, std::make_unique<flns::FedAvgAggregator>(),
                      flns::ServerConfig{1.0, 1e-12}, stats::Rng(2));
  for (int round = 0; round < 20; ++round) {
    const flns::RoundTelemetry t = server.run_round(raw);
    EXPECT_EQ(t.sampled_ids.size(), 1u);
    EXPECT_FALSE(t.aggregate_skipped);
  }
}

}  // namespace
}  // namespace collapois
