// The infrastructure fault plane (DESIGN.md §13): shard faults +
// failover, durable checkpoints, and chaos crash/recovery.
//
// The headline properties:
//  - failover equality: a round with injected shard failures, after
//    redistribution, is BIT-IDENTICAL to the flat path — for every
//    shardable defense, every shard count, every thread count, and
//    through full experiments on both round engines;
//  - loud durability: truncated or bit-flipped checkpoint files produce
//    std::runtime_error (never UB or an attacker-sized allocation), and
//    the rolling store recovers to the newest intact generation;
//  - chaos recovery: a run killed at a scheduled crash point and resumed
//    from its checkpoint chain finishes bit-identical to an
//    uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "agg/shard_faults.h"
#include "agg/sharded_aggregator.h"
#include "defense/registry.h"
#include "fl/state.h"
#include "net/envelope.h"
#include "runtime/thread_pool.h"
#include "sim/chaos.h"
#include "sim/checkpoint.h"
#include "sim/checkpoint_store.h"
#include "sim/runner.h"

namespace collapois {
namespace {

// Removes the whole rotation chain on destruction, not just the head.
class TempChain {
 public:
  explicit TempChain(std::string name)
      : path_(::testing::TempDir() + std::move(name)) {}
  ~TempChain() {
    for (std::size_t age = 0; age < 8; ++age) {
      std::remove(slot(age).c_str());
    }
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }
  std::string slot(std::size_t age) const {
    return age == 0 ? path_ : path_ + "." + std::to_string(age);
  }

 private:
  std::string path_;
};

void expect_bits_equal(const tensor::FlatVec& a, const tensor::FlatVec& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

std::vector<fl::ClientUpdate> synth_updates(std::size_t n, std::size_t d,
                                            std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<fl::ClientUpdate> updates(n);
  for (std::size_t i = 0; i < n; ++i) {
    updates[i].client_id = i;
    updates[i].weight = 0.5 + rng.uniform();
    updates[i].delta.resize(d);
    for (float& v : updates[i].delta) {
      v = static_cast<float>(rng.normal());
    }
  }
  return updates;
}

// ------------------------------------------------------- ShardFaultModel

TEST(InfraShardFaultModel, ValidatesProbabilitiesAndBackoff) {
  agg::ShardFaultConfig bad;
  bad.crash_prob = -0.1;
  EXPECT_THROW(agg::ShardFaultModel{bad}, std::invalid_argument);
  bad.crash_prob = 1.5;
  EXPECT_THROW(agg::ShardFaultModel{bad}, std::invalid_argument);
  bad.crash_prob = 0.6;
  bad.timeout_prob = 0.6;  // sum > 1
  EXPECT_THROW(agg::ShardFaultModel{bad}, std::invalid_argument);
  agg::ShardFaultConfig nan_backoff;
  nan_backoff.backoff_base_ms = -1.0;
  EXPECT_THROW(agg::ShardFaultModel{nan_backoff}, std::invalid_argument);

  agg::ShardFaultConfig ok;
  ok.crash_prob = 0.3;
  ok.timeout_prob = 0.3;
  ok.corrupt_prob = 0.3;
  EXPECT_NO_THROW(agg::ShardFaultModel{ok});
  EXPECT_TRUE(ok.any());
  EXPECT_FALSE(agg::ShardFaultConfig{}.any());
}

TEST(InfraShardFaultModel, DecisionsAreDeterministicCounterBased) {
  agg::ShardFaultConfig cfg;
  cfg.crash_prob = 0.2;
  cfg.timeout_prob = 0.2;
  cfg.corrupt_prob = 0.2;
  const agg::ShardFaultModel a(cfg);
  const agg::ShardFaultModel b(cfg);
  std::size_t faulted = 0;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    for (std::size_t round = 0; round < 64; ++round) {
      for (std::size_t attempt = 0; attempt < 3; ++attempt) {
        const auto kind = a.decide(shard, round, attempt);
        // Pure function of the cell: a second model and a repeat call
        // agree regardless of query order.
        EXPECT_EQ(kind, b.decide(shard, round, attempt));
        EXPECT_EQ(kind, a.decide(shard, round, attempt));
        if (kind != agg::ShardFaultKind::none) ++faulted;
      }
    }
  }
  // 60% fault mass over 1536 cells: the empirical rate must land near it
  // (loose 3-sigma band; deterministic, so this can never flake).
  EXPECT_GT(faulted, 1536 * 0.5);
  EXPECT_LT(faulted, 1536 * 0.7);
  // A different seed faults different cells.
  agg::ShardFaultConfig other = cfg;
  other.seed += 1;
  const agg::ShardFaultModel c(other);
  std::size_t diff = 0;
  for (std::size_t round = 0; round < 64; ++round) {
    if (a.decide(0, round, 0) != c.decide(0, round, 0)) ++diff;
  }
  EXPECT_GT(diff, 0u);
}

TEST(InfraShardFaultModel, PinnedShardOverridesEveryDraw) {
  agg::ShardFaultConfig cfg;
  cfg.pinned[2] = agg::ShardFaultKind::crash;
  const agg::ShardFaultModel m(cfg);
  for (std::size_t round = 0; round < 16; ++round) {
    for (std::size_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(m.decide(2, round, attempt), agg::ShardFaultKind::crash);
      EXPECT_EQ(m.decide(1, round, attempt), agg::ShardFaultKind::none);
    }
  }
}

TEST(InfraShardFaultModel, BackoffIsCappedExponential) {
  agg::ShardFaultConfig cfg;
  cfg.backoff_base_ms = 10.0;
  cfg.backoff_cap_ms = 35.0;
  const agg::ShardFaultModel m(cfg);
  EXPECT_DOUBLE_EQ(m.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(m.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(m.backoff_ms(3), 35.0);  // capped, not 40
  EXPECT_DOUBLE_EQ(m.backoff_ms(9), 35.0);
}

TEST(InfraShardFaultModel, KindNamesAreStable) {
  EXPECT_STREQ(agg::shard_fault_kind_name(agg::ShardFaultKind::none), "none");
  EXPECT_STREQ(agg::shard_fault_kind_name(agg::ShardFaultKind::crash),
               "crash");
  EXPECT_STREQ(agg::shard_fault_kind_name(agg::ShardFaultKind::timeout),
               "timeout");
  EXPECT_STREQ(agg::shard_fault_kind_name(agg::ShardFaultKind::corrupt),
               "corrupt");
}

// ---------------------------------------------------- failover equality

// The satellite property test: a round with an injected shard failure,
// after redistribution, is bit-identical to the flat path — for every
// shardable defense x S in {2, 4, 8} x thread counts. The pinned fault
// guarantees shard 0 exhausts its retries every round, so failover is
// exercised deterministically, not probabilistically.
TEST(InfraFailoverEquality, EveryShardableDefenseBitEqualUnderFailover) {
  using defense::DefenseKind;
  const DefenseKind kinds[] = {
      DefenseKind::none,        DefenseKind::dp,
      DefenseKind::user_dp,     DefenseKind::norm_bound,
      DefenseKind::crfl,        DefenseKind::coord_median,
      DefenseKind::trimmed_mean, DefenseKind::rlr,
      DefenseKind::sign_sgd,    DefenseKind::ditto,
  };
  runtime::ThreadPool pool(3);
  runtime::ThreadPool* pools[] = {nullptr, &pool};
  const defense::DefenseParams params;
  const auto round1 = synth_updates(13, 37, 21);
  const auto round2 = synth_updates(13, 37, 22);
  tensor::FlatVec global(37, 0.25f);

  agg::ShardFaultConfig fcfg;
  fcfg.pinned[0] = agg::ShardFaultKind::crash;

  for (DefenseKind kind : kinds) {
    SCOPED_TRACE(defense::defense_name(kind));
    auto flat = defense::make_defense(kind, params, stats::Rng(99));
    const auto flat1 = flat->aggregate(round1, global);
    const auto flat2 = flat->aggregate(round2, global);
    for (std::size_t shards : {2u, 4u, 8u}) {
      for (runtime::ThreadPool* p : pools) {
        SCOPED_TRACE(shards);
        agg::ShardedAggregator sharded(
            defense::make_defense(kind, params, stats::Rng(99)), shards,
            std::make_shared<agg::ShardFaultModel>(fcfg));
        sharded.begin_round(0);
        expect_bits_equal(flat1, sharded.aggregate(round1, global, p));
        const fl::InfraStats s1 = sharded.take_infra_stats();
        // Shard 0 is pinned to crash: it fails every attempt, exhausts
        // the retry budget, and fails over — every round, degraded.
        EXPECT_EQ(s1.shard_failovers, 1u);
        EXPECT_EQ(s1.shard_failures, fcfg.max_retries + 1);
        EXPECT_EQ(s1.shard_retries, fcfg.max_retries);
        EXPECT_GT(s1.backoff_virtual_ms, 0.0);
        EXPECT_TRUE(s1.degraded);
        sharded.begin_round(1);
        expect_bits_equal(flat2, sharded.aggregate(round2, global, p));
        EXPECT_TRUE(sharded.take_infra_stats().degraded);
      }
    }
  }
}

TEST(InfraFailoverEquality, AllShardsDeadStillBitEqualToFlat) {
  // Every shard pinned to a fault: streaming falls back to the root
  // absorbing the whole orphaned range, coordinate recomputes every tile
  // at the root — still bit-identical, still not a lost round.
  agg::ShardFaultConfig fcfg;
  for (std::size_t s = 0; s < 4; ++s) {
    fcfg.pinned[s] = s % 2 == 0 ? agg::ShardFaultKind::crash
                                : agg::ShardFaultKind::corrupt;
  }
  const auto updates = synth_updates(11, 29, 77);
  tensor::FlatVec global(29, 0.1f);
  const defense::DefenseParams params;
  for (defense::DefenseKind kind :
       {defense::DefenseKind::none, defense::DefenseKind::trimmed_mean}) {
    SCOPED_TRACE(defense::defense_name(kind));
    auto flat = defense::make_defense(kind, params, stats::Rng(5));
    agg::ShardedAggregator sharded(
        defense::make_defense(kind, params, stats::Rng(5)), 4,
        std::make_shared<agg::ShardFaultModel>(fcfg));
    sharded.begin_round(3);
    expect_bits_equal(flat->aggregate(updates, global),
                      sharded.aggregate(updates, global, nullptr));
    const fl::InfraStats s = sharded.take_infra_stats();
    EXPECT_EQ(s.shard_failovers, 4u);
    EXPECT_TRUE(s.degraded);
  }
}

TEST(InfraFailoverEquality, StochasticFaultsStayBitEqual) {
  agg::ShardFaultConfig fcfg;
  fcfg.crash_prob = 0.25;
  fcfg.timeout_prob = 0.25;
  fcfg.corrupt_prob = 0.25;
  const auto updates = synth_updates(16, 33, 9);
  tensor::FlatVec global(33, -0.2f);
  const defense::DefenseParams params;
  auto flat = defense::make_defense(defense::DefenseKind::coord_median, params,
                                    stats::Rng(2));
  agg::ShardedAggregator sharded(
      defense::make_defense(defense::DefenseKind::coord_median, params,
                            stats::Rng(2)),
      8, std::make_shared<agg::ShardFaultModel>(fcfg));
  std::size_t failures = 0;
  for (std::size_t round = 0; round < 12; ++round) {
    sharded.begin_round(round);
    expect_bits_equal(flat->aggregate(updates, global),
                      sharded.aggregate(updates, global, nullptr));
    failures += sharded.take_infra_stats().shard_failures;
  }
  // 75% per-attempt fault mass over 8 shards x 12 rounds: faults must
  // actually have fired for this test to mean anything.
  EXPECT_GT(failures, 0u);
}

TEST(InfraFailoverEquality, FaultsRequireATree) {
  EXPECT_THROW(
      agg::ShardedAggregator(
          defense::make_defense(defense::DefenseKind::none, {}, stats::Rng(1)),
          1, std::make_shared<agg::ShardFaultModel>(agg::ShardFaultConfig{})),
      std::invalid_argument);
}

// ----------------------------------------------------- full experiments

sim::ExperimentConfig infra_cfg() {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = defense::DefenseKind::trimmed_mean;
  cfg.n_clients = 40;
  cfg.samples_per_client = 30;
  cfg.sample_prob = 0.3;
  cfg.rounds = 4;
  cfg.attack_start_round = 1;
  cfg.eval_max_clients = 8;
  cfg.threads = 1;
  cfg.seed = 11;
  return cfg;
}

void expect_same_outcome(const sim::ExperimentResult& a,
                         const sim::ExperimentResult& b) {
  expect_bits_equal(a.final_global, b.final_global);
  ASSERT_EQ(a.final_evals.size(), b.final_evals.size());
  for (std::size_t i = 0; i < a.final_evals.size(); ++i) {
    EXPECT_EQ(a.final_evals[i].client_index, b.final_evals[i].client_index);
    EXPECT_EQ(a.final_evals[i].benign_ac, b.final_evals[i].benign_ac);
    EXPECT_EQ(a.final_evals[i].attack_sr, b.final_evals[i].attack_sr);
  }
}

// Full-system failover equality on BOTH round engines: a sharded run
// under pinned + stochastic shard faults matches the flat (shards = 1,
// no faults) run exactly, every round aggregates (zero rounds lost to
// failover), and the telemetry shows the degradation.
TEST(InfraFailoverEquality, FullExperimentBothEnginesMatchFlat) {
  for (fl::RoundEngineKind engine :
       {fl::RoundEngineKind::sync, fl::RoundEngineKind::buffered_async}) {
    SCOPED_TRACE(static_cast<int>(engine));
    auto flat = infra_cfg();
    flat.round_engine = engine;
    const auto reference = sim::run_experiment(flat);

    auto faulty = flat;
    faulty.shards = 4;
    faulty.threads = 4;
    faulty.shard_faults.crash_prob = 0.2;
    faulty.shard_faults.pinned[0] = agg::ShardFaultKind::timeout;
    const auto result = sim::run_experiment(faulty);

    expect_same_outcome(reference, result);
    ASSERT_EQ(result.rounds.size(), reference.rounds.size());
    std::size_t degraded = 0;
    for (std::size_t t = 0; t < result.rounds.size(); ++t) {
      EXPECT_EQ(result.rounds[t].distance_to_x,
                reference.rounds[t].distance_to_x);
      // Gate (c) of the chaos bench, unit-sized: degraded rounds still
      // aggregate — failover never skips a round.
      if (result.rounds[t].shard_failovers > 0) {
        ++degraded;
        EXPECT_TRUE(result.rounds[t].degraded);
        EXPECT_FALSE(result.rounds[t].aggregate_skipped);
      }
    }
    // The pinned shard guarantees at least one failover per aggregating
    // round, so degradation must show up in the telemetry.
    EXPECT_GT(degraded, 0u);
  }
}

TEST(InfraFailoverEquality, RunnerRejectsFaultsWithoutTree) {
  auto cfg = infra_cfg();
  cfg.shard_faults.crash_prob = 0.1;  // shards defaults to 1
  EXPECT_THROW(sim::run_experiment(cfg), std::invalid_argument);
}

// ----------------------------------------------- checkpoint durability

sim::Checkpoint sample_checkpoint() {
  sim::Checkpoint ck;
  ck.fingerprint = 0x1111;
  ck.net_fingerprint = 0x2222;
  ck.engine_fingerprint = 0x3333;
  ck.scale_fingerprint = 0x4444;
  ck.rounds_completed = 17;
  for (std::size_t i = 0; i < 4; ++i) {
    ck.run_rng.s[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  }
  ck.run_rng.cached_normal = 0.25;
  ck.run_rng.has_cached_normal = true;
  ck.trojaned_model.assign(257, 1.5f);
  ck.fault_state.assign(41, 0xAB);
  ck.net_state.assign(13, 0xCD);
  ck.algo_state.assign(513, 0x5A);
  return ck;
}

void expect_checkpoints_equal(const sim::Checkpoint& a,
                              const sim::Checkpoint& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.run_rng.s[i], b.run_rng.s[i]);
  }
  EXPECT_EQ(a.trojaned_model, b.trojaned_model);
  EXPECT_EQ(a.fault_state, b.fault_state);
  EXPECT_EQ(a.net_state, b.net_state);
  EXPECT_EQ(a.algo_state, b.algo_state);
}

TEST(InfraCheckpointDurability, EncodeDecodeRoundTrips) {
  const sim::Checkpoint ck = sample_checkpoint();
  const auto image = sim::encode_checkpoint(ck);
  expect_checkpoints_equal(ck, sim::decode_checkpoint(image, "image"));
}

// Satellite: every truncated prefix must produce a loud runtime_error —
// never UB, never an attacker-sized allocation. The digest/size header
// is verified before any payload field is parsed.
TEST(InfraCheckpointDurability, TruncatedPrefixesFailLoudly) {
  const auto image = sim::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < image.size(); len += 64) {
    SCOPED_TRACE(len);
    const std::span<const std::uint8_t> prefix(image.data(), len);
    EXPECT_THROW(sim::decode_checkpoint(prefix, "prefix"),
                 std::runtime_error);
  }
  // The off-by-one edge too: everything but the last byte.
  const std::span<const std::uint8_t> almost(image.data(), image.size() - 1);
  EXPECT_THROW(sim::decode_checkpoint(almost, "almost"), std::runtime_error);
}

// Satellite: single-bit flips at every 64th byte — header flips hit the
// magic/version/size/digest checks, payload flips hit the digest.
TEST(InfraCheckpointDurability, BitFlipsAtEvery64thByteFailLoudly) {
  const auto image = sim::encode_checkpoint(sample_checkpoint());
  for (std::size_t pos = 0; pos < image.size(); pos += 64) {
    for (std::uint8_t bit : {std::uint8_t{0}, std::uint8_t{7}}) {
      SCOPED_TRACE(pos);
      auto damaged = image;
      damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        sim::decode_checkpoint(damaged, "flipped");
        FAIL() << "bit flip at byte " << pos << " went undetected";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("flipped"), std::string::npos);
      }
    }
  }
}

// v8 changed the payload digest; a v7 image must be refused by its
// version field, never parsed under the new digest.
TEST(InfraCheckpointImage, Version7ImageIsRefused) {
  auto image = sim::encode_checkpoint(sample_checkpoint());
  const std::uint64_t v7 = 7;
  std::memcpy(image.data() + 8, &v7, sizeof(v7));  // header: magic, version
  try {
    sim::decode_checkpoint(image, "old.bin");
    FAIL() << "a v7 image was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

// The single-buffer encode lays out exactly header + payload, as a
// separate payload writer would, in one allocation of the exact size.
TEST(InfraCheckpointImage, EncodeIsHeaderThenPayloadInOneExactBuffer) {
  const sim::Checkpoint ck = sample_checkpoint();
  fl::StateWriter payload;
  payload.write_u64(ck.fingerprint);
  payload.write_u64(ck.net_fingerprint);
  payload.write_u64(ck.engine_fingerprint);
  payload.write_u64(ck.scale_fingerprint);
  payload.write_u64(ck.codec_fingerprint);
  payload.write_size(ck.rounds_completed);
  for (std::uint64_t s : ck.run_rng.s) payload.write_u64(s);
  payload.write_double(ck.run_rng.cached_normal);
  payload.write_bool(ck.run_rng.has_cached_normal);
  payload.write_floats(ck.trojaned_model);
  payload.write_bytes(ck.fault_state);
  payload.write_bytes(ck.net_state);
  payload.write_bytes(ck.algo_state);
  fl::StateWriter header;
  header.write_u64(0x434f4c4c41504b54ULL);  // "COLLAPKT"
  header.write_u64(8);
  header.write_size(payload.bytes().size());
  header.write_u64(net::payload_checksum(payload.bytes()));
  std::vector<std::uint8_t> expected = header.take();
  expected.insert(expected.end(), payload.bytes().begin(),
                  payload.bytes().end());

  const auto image = sim::encode_checkpoint(ck);
  EXPECT_EQ(image, expected);
  EXPECT_EQ(image.capacity(), image.size());
}

TEST(InfraCheckpointDurability, SaveIsAtomicAndLoadRoundTrips) {
  TempChain chain("infra_ck_atomic.bin");
  const sim::Checkpoint ck = sample_checkpoint();
  sim::save_checkpoint_file(chain.path(), ck);
  // The temp file must be gone: only the renamed final file remains.
  std::ifstream tmp(chain.path() + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  expect_checkpoints_equal(ck, sim::load_checkpoint_file(chain.path()));
}

// Satellite: the save path names the file and the errno text when the
// destination cannot be opened.
TEST(InfraCheckpointDurability, OpenFailureNamesPathAndErrno) {
  const std::string bad = "/nonexistent-dir-collapois/ck.bin";
  try {
    sim::save_checkpoint_file(bad, sample_checkpoint());
    FAIL() << "expected the open failure throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(bad), std::string::npos);
    EXPECT_NE(what.find("No such file"), std::string::npos);
  }
}

// ------------------------------------------------------ CheckpointStore

TEST(InfraCheckpointStore, ValidatesConstruction) {
  EXPECT_THROW(sim::CheckpointStore("", 3), std::invalid_argument);
  EXPECT_THROW(sim::CheckpointStore("x", 0), std::invalid_argument);
}

TEST(InfraCheckpointStore, RotationKeepsLastK) {
  TempChain chain("infra_store_rot.bin");
  sim::CheckpointStore store(chain.path(), 3);
  sim::Checkpoint ck = sample_checkpoint();
  for (std::size_t gen = 1; gen <= 4; ++gen) {
    ck.rounds_completed = gen;
    store.save(ck);
  }
  // Head = gen 4, .1 = gen 3, .2 = gen 2; gen 1 rotated off the end.
  EXPECT_EQ(sim::load_checkpoint_file(store.slot_path(0)).rounds_completed,
            4u);
  EXPECT_EQ(sim::load_checkpoint_file(store.slot_path(1)).rounds_completed,
            3u);
  EXPECT_EQ(sim::load_checkpoint_file(store.slot_path(2)).rounds_completed,
            2u);
  const auto r = store.load_newest();
  EXPECT_EQ(r.checkpoint.rounds_completed, 4u);
  EXPECT_EQ(r.path, chain.path());
  EXPECT_EQ(r.discarded, 0u);
}

TEST(InfraCheckpointStore, DamagedHeadFallsBackToLastGood) {
  TempChain chain("infra_store_fallback.bin");
  sim::CheckpointStore store(chain.path(), 3);
  sim::Checkpoint ck = sample_checkpoint();
  ck.rounds_completed = 1;
  store.save(ck);
  // A torn mid-save write damages the head; the previous generation is
  // intact behind it.
  ck.rounds_completed = 2;
  store.save_torn(ck, 0.5);
  const auto r = store.load_newest();
  EXPECT_EQ(r.checkpoint.rounds_completed, 1u);
  EXPECT_EQ(r.path, store.slot_path(1));
  EXPECT_EQ(r.discarded, 1u);
}

TEST(InfraCheckpointStore, AllDamagedThrowsNamingEveryFile) {
  TempChain chain("infra_store_alldead.bin");
  sim::CheckpointStore store(chain.path(), 2);
  sim::Checkpoint ck = sample_checkpoint();
  store.save(ck);
  store.save(ck);
  // Flip a payload byte in both generations.
  for (std::size_t age = 0; age < 2; ++age) {
    std::fstream f(store.slot_path(age),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    f.put(static_cast<char>(0x7F));
  }
  try {
    store.load_newest();
    FAIL() << "expected the all-damaged throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(store.slot_path(0)), std::string::npos);
    EXPECT_NE(what.find(store.slot_path(1)), std::string::npos);
  }
}

// Rewrites the format-version field (header: magic, version) of a file.
void set_file_version(const std::string& path, std::uint64_t version) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
}

// A head written in another format version is not damage: the walk stops
// with the version error instead of silently rewinding to an intact .1.
TEST(InfraCheckpointStore, VersionMismatchHeadStopsTheWalk) {
  TempChain chain("infra_store_version.bin");
  sim::CheckpointStore store(chain.path(), 3);
  sim::Checkpoint ck = sample_checkpoint();
  ck.rounds_completed = 1;
  store.save(ck);
  ck.rounds_completed = 2;
  store.save(ck);
  set_file_version(store.slot_path(0), 7);
  try {
    const auto r = store.load_newest();
    FAIL() << "resumed from " << r.path << " past a version-7 head";
  } catch (const sim::CheckpointVersionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(store.slot_path(0)), std::string::npos) << what;
    EXPECT_NE(what.find("version 7"), std::string::npos) << what;
    EXPECT_NE(what.find("version 8"), std::string::npos) << what;
  }
}

TEST(InfraCheckpointStore, LoneVersionMismatchIsNotReportedAsDamage) {
  TempChain chain("infra_store_version_lone.bin");
  sim::CheckpointStore store(chain.path(), 3);
  store.save(sample_checkpoint());
  set_file_version(store.slot_path(0), 7);
  try {
    store.load_newest();
    FAIL() << "a version-7 head was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported version"), std::string::npos) << what;
    EXPECT_EQ(what.find("damaged"), std::string::npos) << what;
  }
}

TEST(InfraCheckpointStore, MissingChainThrows) {
  TempChain chain("infra_store_missing.bin");
  sim::CheckpointStore store(chain.path(), 3);
  EXPECT_THROW(store.load_newest(), std::runtime_error);
}

// ------------------------------------------------------- chaos recovery

TEST(ChaosRecovery, PhaseNamesParseAndRoundTrip) {
  using sim::CrashPhase;
  for (CrashPhase p : {CrashPhase::post_train, CrashPhase::mid_buffer,
                       CrashPhase::mid_save}) {
    EXPECT_EQ(sim::parse_crash_phase(sim::crash_phase_name(p)), p);
  }
  EXPECT_THROW(sim::parse_crash_phase("mid-round"), std::invalid_argument);
  EXPECT_THROW(sim::parse_crash_phase(""), std::invalid_argument);
}

TEST(ChaosRecovery, RunnerValidatesChaosOptions) {
  {
    auto cfg = infra_cfg();
    sim::RunOptions opts;
    opts.crash_round = cfg.rounds;  // would never fire
    EXPECT_THROW(sim::run_experiment(cfg, opts), std::invalid_argument);
  }
  {
    auto cfg = infra_cfg();
    sim::RunOptions opts;
    opts.crash_round = 1;
    opts.crash_phase = sim::CrashPhase::mid_save;  // needs periodic saves
    EXPECT_THROW(sim::run_experiment(cfg, opts), std::invalid_argument);
  }
}

// The tentpole recovery property, in-process: kill at a scheduled crash
// point, resume from the chain, finish bit-identical to an uninterrupted
// run — under client + shard + transport faults.
sim::ExperimentConfig chaos_cfg() {
  auto cfg = infra_cfg();
  cfg.rounds = 6;
  cfg.shards = 2;
  cfg.shard_faults.crash_prob = 0.2;
  cfg.faults.dropout_prob = 0.1;
  cfg.faults.straggler_prob = 0.1;
  cfg.net.enabled = true;
  cfg.net.loss_prob = 0.05;
  return cfg;
}

TEST(ChaosRecovery, PostTrainCrashResumesBitExact) {
  const auto reference = sim::run_experiment(chaos_cfg());

  TempChain chain("chaos_post_train.bin");
  sim::RunOptions crash;
  crash.checkpoint_save_path = chain.path();
  crash.checkpoint_every = 2;
  crash.crash_round = 4;
  crash.crash_phase = sim::CrashPhase::post_train;
  EXPECT_THROW(sim::run_experiment(chaos_cfg(), crash), sim::CrashInjected);

  sim::RunOptions resume;
  resume.checkpoint_load_path = chain.path();
  const auto resumed = sim::run_experiment(chaos_cfg(), resume);
  // post_train fires before round 4's checkpoint: the newest intact
  // generation is round 4 (saved at the end of round index 3).
  EXPECT_EQ(resumed.recovered_from, chain.path());
  EXPECT_EQ(resumed.recovery_discarded, 0u);
  EXPECT_EQ(resumed.rounds.front().round, 4u);
  expect_same_outcome(reference, resumed);
  for (const auto& rec : resumed.rounds) {
    EXPECT_EQ(rec.distance_to_x, reference.rounds[rec.round].distance_to_x);
  }
}

TEST(ChaosRecovery, MidSaveCrashRecoversToLastGoodAndCountsIt) {
  const auto reference = sim::run_experiment(chaos_cfg());

  TempChain chain("chaos_mid_save.bin");
  sim::RunOptions crash;
  crash.checkpoint_save_path = chain.path();
  crash.checkpoint_every = 2;
  crash.crash_round = 3;
  crash.crash_phase = sim::CrashPhase::mid_save;
  EXPECT_THROW(sim::run_experiment(chaos_cfg(), crash), sim::CrashInjected);

  sim::RunOptions resume;
  resume.checkpoint_load_path = chain.path();
  const auto resumed = sim::run_experiment(chaos_cfg(), resume);
  // The head (round 4's torn save) is damaged: recovery falls back to
  // the round-2 generation and reports the discarded head.
  EXPECT_EQ(resumed.recovered_from, chain.path() + ".1");
  EXPECT_EQ(resumed.recovery_discarded, 1u);
  EXPECT_EQ(resumed.rounds.front().round, 2u);
  expect_same_outcome(reference, resumed);
}

TEST(ChaosRecovery, MidBufferCrashOnAsyncEngineResumesBitExact) {
  auto cfg = chaos_cfg();
  cfg.round_engine = fl::RoundEngineKind::buffered_async;
  const auto reference = sim::run_experiment(cfg);

  TempChain chain("chaos_mid_buffer.bin");
  sim::RunOptions crash;
  crash.checkpoint_save_path = chain.path();
  crash.checkpoint_every = 2;
  crash.crash_round = 3;
  crash.crash_phase = sim::CrashPhase::mid_buffer;
  EXPECT_THROW(sim::run_experiment(cfg, crash), sim::CrashInjected);

  sim::RunOptions resume;
  resume.checkpoint_load_path = chain.path();
  const auto resumed = sim::run_experiment(cfg, resume);
  // mid_buffer fires right after the forced save: the head checkpoint
  // carries cycle 4's in-flight buffer state and resumes from round 4.
  EXPECT_EQ(resumed.recovered_from, chain.path());
  EXPECT_EQ(resumed.rounds.front().round, 4u);
  expect_same_outcome(reference, resumed);
}

}  // namespace
}  // namespace collapois
