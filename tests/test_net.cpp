// The simulated transport layer (src/net/): envelope codec + checksum
// detection, counter-based network decisions, retry/backoff/deadline
// semantics, the server's partial-aggregation path and its unified drop
// accounting, and the determinism guarantees — element-exact results
// across thread counts and bit-exact checkpoint/resume under transport
// faults (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "fl/aggregator.h"
#include "fl/server.h"
#include "net/envelope.h"
#include "net/network_model.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"
#include "stats/rng.h"

namespace collapois {
namespace {

using fl::ClientUpdate;
using fl::UpdateStatus;

// --- envelope codec -----------------------------------------------------

ClientUpdate sample_update() {
  ClientUpdate u;
  u.client_id = 17;
  u.weight = 2.25;
  u.status = UpdateStatus::straggler;
  u.staleness = 3;
  u.delta = {1.5f, -0.0f, std::numeric_limits<float>::denorm_min(),
             3.0e38f, -7.25f};
  return u;
}

// Bit-level equality: operator== is wrong for -0.0 and NaN, and the
// zero-fault element-exactness guarantee is about BITS.
void expect_bit_equal(const ClientUpdate& a, const ClientUpdate& b) {
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.staleness, b.staleness);
  EXPECT_EQ(std::memcmp(&a.weight, &b.weight, sizeof(a.weight)), 0);
  ASSERT_EQ(a.delta.size(), b.delta.size());
  if (!a.delta.empty()) {
    EXPECT_EQ(std::memcmp(a.delta.data(), b.delta.data(),
                          a.delta.size() * sizeof(float)),
              0);
  }
}

TEST(NetEnvelope, RoundTripIsBitExact) {
  ClientUpdate u = sample_update();
  // The codec is payload-agnostic: even a NaN crosses the wire bit-exact
  // (the server's validation layer, not the transport, rejects it).
  u.delta.push_back(std::numeric_limits<float>::quiet_NaN());
  const net::Envelope env = net::encode_update(u, 5);
  EXPECT_EQ(env.sender_id, u.client_id);
  EXPECT_EQ(env.round, 5u);
  const auto decoded = net::decode_update(env);
  ASSERT_TRUE(decoded.has_value());
  expect_bit_equal(u, *decoded);
}

TEST(NetEnvelope, EmptyDeltaRoundTrips) {
  ClientUpdate u;
  u.client_id = 2;
  const auto decoded = net::decode_update(net::encode_update(u, 0));
  ASSERT_TRUE(decoded.has_value());
  expect_bit_equal(u, *decoded);
}

TEST(NetEnvelope, ChecksumCatchesEverySingleByteFlip) {
  const net::Envelope env = net::encode_update(sample_update(), 1);
  for (std::size_t at = 0; at < env.payload.size(); ++at) {
    net::Envelope damaged = env;
    damaged.payload[at] ^= 0x01;
    EXPECT_FALSE(net::decode_update(damaged).has_value())
        << "flip at byte " << at << " went undetected";
  }
}

TEST(NetEnvelope, ChecksumCatchesTruncation) {
  const net::Envelope env = net::encode_update(sample_update(), 1);
  for (std::size_t len : {std::size_t{0}, env.payload.size() / 2,
                          env.payload.size() - 1}) {
    net::Envelope damaged = env;
    damaged.payload.resize(len);
    EXPECT_FALSE(net::decode_update(damaged).has_value())
        << "truncation to " << len << " bytes went undetected";
  }
}

// The checksum's definition, written from the spec with explicit
// little-endian word assembly (no host-order loads).
std::uint64_t reference_checksum(std::span<const std::uint8_t> p) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= p.size(); i += 8) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
    }
    h = (h ^ w) * kPrime;
  }
  for (; i < p.size(); ++i) h = (h ^ p[i]) * kPrime;
  return (h ^ p.size()) * kPrime;
}

// Every single-bit flip and every proper prefix of `payload` must move
// the digest (flips always do by construction: each FNV-1a step is a
// bijection of the running state).
void expect_flips_and_prefixes_detected(std::vector<std::uint8_t> payload) {
  const std::uint64_t base = net::payload_checksum(payload);
  for (std::size_t at = 0; at < payload.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[at] ^= static_cast<std::uint8_t>(1u << bit);
      const bool changed = net::payload_checksum(payload) != base;
      payload[at] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_TRUE(changed) << "flip of bit " << bit << " at byte " << at;
    }
  }
  for (std::size_t len = 0; len < payload.size(); ++len) {
    ASSERT_NE(net::payload_checksum(
                  std::span<const std::uint8_t>(payload.data(), len)),
              base)
        << "prefix of " << len << " bytes";
  }
}

TEST(NetChecksum, MatchesTheWordWiseDefinition) {
  std::vector<std::uint8_t> p;
  for (std::size_t len = 0; len <= 33; ++len) {
    EXPECT_EQ(net::payload_checksum(p), reference_checksum(p)) << len;
    p.push_back(static_cast<std::uint8_t>(len * 37 + 11));
  }
}

TEST(NetChecksum, EveryBitFlipAndPrefixChangesShortDigests) {
  for (std::size_t len = 0; len <= 33; ++len) {
    SCOPED_TRACE(len);
    std::vector<std::uint8_t> p(len);
    for (std::size_t i = 0; i < len; ++i) {
      p[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    expect_flips_and_prefixes_detected(p);
    // All-zero payloads: only the length term separates the prefixes.
    expect_flips_and_prefixes_detected(std::vector<std::uint8_t>(len, 0));
  }
}

TEST(NetChecksum, EveryBitFlipAndPrefixChangesARealEnvelopeDigest) {
  ClientUpdate u = sample_update();
  stats::Rng rng(11);
  u.delta.resize(2178);  // a sentiment-MLP-sized update, ~8.7 KB on the wire
  for (std::size_t i = 5; i < u.delta.size(); ++i) {
    u.delta[i] = static_cast<float>(rng.normal(0.0, 0.01));
  }
  const net::Envelope env = net::encode_update(u, 3);
  ASSERT_EQ(env.checksum, net::payload_checksum(env.payload));
  expect_flips_and_prefixes_detected(env.payload);
}

// --- network model ------------------------------------------------------

net::NetConfig zero_fault_net() {
  net::NetConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(NetModel, RejectsInvalidConfig) {
  auto expect_rejected = [](auto mutate) {
    net::NetConfig cfg = zero_fault_net();
    mutate(cfg);
    EXPECT_THROW(net::NetworkModel{cfg}, std::invalid_argument);
  };
  expect_rejected([](net::NetConfig& c) { c.loss_prob = 1.5; });
  expect_rejected([](net::NetConfig& c) { c.loss_prob = -0.1; });
  expect_rejected([](net::NetConfig& c) {
    c.corrupt_prob = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected([](net::NetConfig& c) { c.latency_min_ms = -1.0; });
  expect_rejected([](net::NetConfig& c) {
    c.latency_min_ms = 60.0;  // above latency_max_ms
  });
  expect_rejected([](net::NetConfig& c) {
    c.deadline_ms = std::numeric_limits<double>::infinity();
  });
  expect_rejected([](net::NetConfig& c) { c.over_sample = 17.0; });
}

TEST(NetModel, BackoffIsCappedExponential) {
  net::NetConfig cfg = zero_fault_net();
  cfg.backoff_base_ms = 20.0;
  cfg.backoff_cap_ms = 160.0;
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 0), 20.0);
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 1), 40.0);
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 2), 80.0);
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 3), 160.0);
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 10), 160.0);
  // The shift saturates instead of overflowing.
  EXPECT_DOUBLE_EQ(net::NetworkModel::backoff_ms(cfg, 1000), 160.0);
}

TEST(NetModel, DecisionsAreDeterministicAndOrderFree) {
  net::NetConfig cfg = zero_fault_net();
  cfg.loss_prob = 0.3;
  cfg.corrupt_prob = 0.1;
  cfg.duplicate_prob = 0.1;
  const net::NetworkModel a(cfg);
  const net::NetworkModel b(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  // Walk the cells in opposite orders: transmit() is a pure function of
  // (config, client, round), so both models agree on every delivery.
  for (std::size_t client = 0; client < 12; ++client) {
    for (std::size_t round = 0; round < 12; ++round) {
      net::TransportStats sa, sb;
      const net::Delivery da = a.transmit(client, round, env, &sa);
      const net::Delivery db =
          b.transmit(11 - client, 11 - round, env, &sb);
      const net::Delivery db2 = b.transmit(client, round, env, &sb);
      EXPECT_EQ(da.status, db2.status);
      EXPECT_EQ(da.arrival_ms, db2.arrival_ms);
      EXPECT_EQ(da.attempts, db2.attempts);
      EXPECT_EQ(da.duplicated, db2.duplicated);
      (void)db;
    }
  }
}

TEST(NetModel, ZeroFaultDeliversFirstAttemptBitExact) {
  const net::NetworkModel model(zero_fault_net());
  const ClientUpdate u = sample_update();
  const net::Envelope env = net::encode_update(u, 4);
  net::TransportStats stats;
  const net::Delivery d = model.transmit(u.client_id, 4, env, &stats);
  EXPECT_EQ(d.status, net::DeliveryStatus::delivered);
  EXPECT_EQ(d.attempts, 1u);
  EXPECT_FALSE(d.duplicated);
  ASSERT_TRUE(d.update.has_value());
  expect_bit_equal(u, *d.update);
  EXPECT_EQ(stats.msgs_sent, 1u);
  EXPECT_EQ(stats.lost, 0u);
  EXPECT_EQ(stats.retried, 0u);
}

TEST(NetModel, TotalLossExhaustsRetryBudget) {
  net::NetConfig cfg = zero_fault_net();
  cfg.loss_prob = 1.0;
  cfg.max_retries = 3;
  const net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats stats;
  const net::Delivery d = model.transmit(7, 0, env, &stats);
  EXPECT_EQ(d.status, net::DeliveryStatus::lost);
  EXPECT_EQ(d.attempts, 4u);  // 1 first send + 3 retries
  EXPECT_EQ(stats.msgs_sent, 4u);
  EXPECT_EQ(stats.lost, 4u);
  EXPECT_EQ(stats.retried, 3u);
}

TEST(NetModel, LossRateMatchesProbability) {
  net::NetConfig cfg = zero_fault_net();
  cfg.loss_prob = 0.25;
  cfg.max_retries = 0;
  const net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats stats;
  const int cells = 20000;
  for (int i = 0; i < cells; ++i) {
    model.transmit(static_cast<std::size_t>(i % 100),
                   static_cast<std::size_t>(i / 100), env, &stats);
  }
  const double rate =
      static_cast<double>(stats.lost) / static_cast<double>(stats.msgs_sent);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(NetModel, CorruptionIsDetectedAndRetried) {
  net::NetConfig cfg = zero_fault_net();
  cfg.corrupt_prob = 1.0;
  cfg.max_retries = 2;
  const net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats stats;
  const net::Delivery d = model.transmit(3, 0, env, &stats);
  // Every attempt arrives damaged, the checksum rejects each one, and the
  // sender's budget runs out.
  EXPECT_EQ(d.status, net::DeliveryStatus::lost);
  EXPECT_EQ(stats.corrupted, 3u);
  EXPECT_EQ(stats.lost, 0u);
}

TEST(NetModel, DeadlineMakesSlowDeliveryLate) {
  net::NetConfig cfg = zero_fault_net();
  cfg.latency_min_ms = 50.0;
  cfg.latency_max_ms = 50.0;
  cfg.deadline_ms = 10.0;
  const net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats stats;
  const net::Delivery d = model.transmit(0, 0, env, &stats);
  EXPECT_EQ(d.status, net::DeliveryStatus::late);
  EXPECT_GT(d.arrival_ms, cfg.deadline_ms);
}

TEST(NetModel, BackoffSchedulePastDeadlineGivesUp) {
  net::NetConfig cfg = zero_fault_net();
  cfg.loss_prob = 1.0;
  cfg.max_retries = 100;
  cfg.deadline_ms = 30.0;
  cfg.backoff_base_ms = 20.0;
  const net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats stats;
  const net::Delivery d = model.transmit(0, 0, env, &stats);
  // send at 0 (lost), backoff 20; send at 20 (lost), backoff 40 -> 60 is
  // past the 30ms deadline: the client stops sending with budget left.
  EXPECT_EQ(d.status, net::DeliveryStatus::late);
  EXPECT_EQ(stats.msgs_sent, 2u);
}

TEST(NetModel, TotalsSaveLoadRoundTrips) {
  net::NetConfig cfg = zero_fault_net();
  cfg.loss_prob = 0.5;
  net::NetworkModel model(cfg);
  const net::Envelope env = net::encode_update(sample_update(), 0);
  net::TransportStats round;
  for (std::size_t c = 0; c < 32; ++c) model.transmit(c, 0, env, &round);
  model.accumulate_round(round);

  fl::StateWriter w;
  model.save_state(w);
  const auto bytes = w.take();
  net::NetworkModel restored(cfg);
  fl::StateReader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(restored.totals().msgs_sent, model.totals().msgs_sent);
  EXPECT_EQ(restored.totals().lost, model.totals().lost);
  EXPECT_EQ(restored.totals().retried, model.totals().retried);
  EXPECT_EQ(restored.totals().arrival_max_ms, model.totals().arrival_max_ms);
}

// --- server integration -------------------------------------------------

// A deterministic scripted client: returns a constant update so the
// transport's effect on the round is observable exactly.
class ConstClient : public fl::Client {
 public:
  ConstClient(std::size_t id, tensor::FlatVec delta,
              UpdateStatus status = UpdateStatus::ok)
      : id_(id), delta_(std::move(delta)), status_(status) {}
  std::size_t id() const override { return id_; }
  ClientUpdate compute_update(const fl::RoundContext&) override {
    ClientUpdate u;
    u.client_id = id_;
    u.delta = delta_;
    u.status = status_;
    return u;
  }
  void distill_round(nn::Model&, nn::Model&) override {}

 private:
  std::size_t id_;
  tensor::FlatVec delta_;
  UpdateStatus status_;
};

class NetServerFixture : public ::testing::Test {
 protected:
  // A population of scripted clients with per-client recognizable deltas.
  void build_clients(std::size_t n) {
    owned_.clear();
    raw_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      owned_.push_back(std::make_unique<ConstClient>(
          i, tensor::FlatVec{static_cast<float>(i + 1), 1.f}));
      raw_.push_back(owned_.back().get());
    }
  }

  fl::Server make_server(const net::NetConfig& ncfg, double q = 1.0,
                         std::uint64_t seed = 3) {
    // Servers hold a raw pointer to their NetworkModel, so every model
    // built here must outlive every server of the test — tests that build
    // two servers (disabled-vs-enabled comparisons) would otherwise leave
    // the first one dangling.
    nets_.push_back(std::make_unique<net::NetworkModel>(ncfg));
    fl::ServerConfig scfg;
    scfg.learning_rate = 1.0;
    scfg.sample_prob = q;
    scfg.net = nets_.back().get();
    return fl::Server(tensor::FlatVec{0.f, 0.f},
                      std::make_unique<fl::FedAvgAggregator>(), scfg,
                      stats::Rng(seed));
  }

  static void expect_invariant(const fl::RoundTelemetry& t) {
    EXPECT_EQ(t.cohort_size, t.sampled_ids.size() + t.dropped_ids.size() +
                                 t.rejected_ids.size());
    EXPECT_EQ(t.drop_reasons.size(), t.dropped_ids.size());
    EXPECT_EQ(t.reject_reasons.size(), t.rejected_ids.size());
    // Every sampled client lands in exactly one bucket — no id is counted
    // twice across accepted/dropped/rejected.
    std::set<std::size_t> ids;
    std::size_t total = 0;
    for (auto id : t.sampled_ids) ids.insert(id), ++total;
    for (auto id : t.dropped_ids) ids.insert(id), ++total;
    for (auto id : t.rejected_ids) ids.insert(id), ++total;
    EXPECT_EQ(ids.size(), total);
  }

  std::vector<std::unique_ptr<fl::Client>> owned_;
  std::vector<fl::Client*> raw_;
  std::vector<std::unique_ptr<net::NetworkModel>> nets_;
};

TEST_F(NetServerFixture, TotalLossDropsWholeCohortAndSkipsRound) {
  build_clients(4);
  net::NetConfig ncfg = zero_fault_net();
  ncfg.loss_prob = 1.0;
  fl::Server server = make_server(ncfg);
  const tensor::FlatVec before = server.global_params();
  const fl::RoundTelemetry t = server.run_round(raw_);
  expect_invariant(t);
  EXPECT_TRUE(t.aggregate_skipped);
  EXPECT_EQ(server.global_params(), before);
  ASSERT_EQ(t.dropped_ids.size(), 4u);
  for (fl::DropReason r : t.drop_reasons) {
    EXPECT_EQ(r, fl::DropReason::transport);
  }
  EXPECT_EQ(t.transport.transport_dropped, 4u);
  EXPECT_EQ(std::string(drop_reason_name(fl::DropReason::transport)),
            "transport");
}

TEST_F(NetServerFixture, DeadlineDropsCarryDeadlineReason) {
  build_clients(4);
  net::NetConfig ncfg = zero_fault_net();
  ncfg.latency_min_ms = 50.0;
  ncfg.latency_max_ms = 50.0;
  ncfg.deadline_ms = 10.0;
  fl::Server server = make_server(ncfg);
  const fl::RoundTelemetry t = server.run_round(raw_);
  expect_invariant(t);
  EXPECT_TRUE(t.aggregate_skipped);
  ASSERT_EQ(t.drop_reasons.size(), 4u);
  for (fl::DropReason r : t.drop_reasons) {
    EXPECT_EQ(r, fl::DropReason::deadline);
  }
  EXPECT_EQ(t.transport.deadline_dropped, 4u);
}

TEST_F(NetServerFixture, ComputeDropoutsNeverTouchTheNetwork) {
  // A FaultModel-style dropout (status == dropped) is charged to the
  // compute layer and sends nothing — counted exactly once.
  build_clients(3);
  owned_.push_back(std::make_unique<ConstClient>(
      3, tensor::FlatVec{1.f, 1.f}, UpdateStatus::dropped));
  raw_.push_back(owned_.back().get());
  fl::Server server = make_server(zero_fault_net());
  const fl::RoundTelemetry t = server.run_round(raw_);
  expect_invariant(t);
  ASSERT_EQ(t.dropped_ids.size(), 1u);
  EXPECT_EQ(t.dropped_ids[0], 3u);
  EXPECT_EQ(t.drop_reasons[0], fl::DropReason::compute);
  EXPECT_EQ(t.transport.msgs_sent, 3u);  // the dropout never sent
  EXPECT_EQ(t.sampled_ids.size(), 3u);
  EXPECT_FALSE(t.aggregate_skipped);
}

TEST_F(NetServerFixture, OverSamplingKeepsTargetAndDropsExcess) {
  build_clients(12);
  net::NetConfig ncfg = zero_fault_net();
  ncfg.over_sample = 1.0;  // sample 2k, keep k
  fl::Server server = make_server(ncfg, /*q=*/0.5);
  bool saw_excess = false;
  for (std::size_t round = 0; round < 5; ++round) {
    const fl::RoundTelemetry t = server.run_round(raw_);
    expect_invariant(t);
    EXPECT_FALSE(t.aggregate_skipped);
    // Zero faults: the only drops are the over-provisioned excess, so the
    // accepted set is exactly the pre-extras target cohort.
    EXPECT_EQ(t.cohort_size,
              t.sampled_ids.size() + t.transport.excess_dropped);
    for (fl::DropReason r : t.drop_reasons) {
      EXPECT_EQ(r, fl::DropReason::excess);
    }
    saw_excess = saw_excess || t.transport.excess_dropped > 0;
  }
  EXPECT_TRUE(saw_excess);
}

TEST_F(NetServerFixture, DuplicatesAreCountedButDoNotChangeTheAggregate) {
  build_clients(6);
  net::NetConfig base = zero_fault_net();
  net::NetConfig dup = base;
  dup.duplicate_prob = 1.0;
  fl::Server clean = make_server(base);
  const fl::RoundTelemetry tc = clean.run_round(raw_);
  fl::Server doubled = make_server(dup);
  const fl::RoundTelemetry td = doubled.run_round(raw_);
  EXPECT_EQ(td.transport.duplicated, 6u);
  EXPECT_EQ(tc.transport.duplicated, 0u);
  // The server de-duplicates by client id: the aggregate is unchanged.
  EXPECT_EQ(tc.aggregated, td.aggregated);
  EXPECT_EQ(clean.global_params(), doubled.global_params());
}

TEST_F(NetServerFixture, ZeroFaultTransportIsElementExactWithDisabled) {
  // The acceptance gate for "no behavior change by default": a transport
  // with every fault off routes each update through encode -> transmit ->
  // decode and must reproduce the disabled path bit-for-bit.
  build_clients(8);
  net::NetConfig off;
  off.enabled = false;
  net::NetConfig on = zero_fault_net();
  fl::Server disabled = make_server(off, /*q=*/0.5, /*seed=*/11);
  fl::Server enabled = make_server(on, /*q=*/0.5, /*seed=*/11);
  for (std::size_t round = 0; round < 6; ++round) {
    const fl::RoundTelemetry a = disabled.run_round(raw_);
    const fl::RoundTelemetry b = enabled.run_round(raw_);
    EXPECT_EQ(a.sampled_ids, b.sampled_ids);
    EXPECT_EQ(a.aggregated, b.aggregated);
  }
  EXPECT_EQ(disabled.global_params(), enabled.global_params());
}

// --- experiment-level determinism --------------------------------------

sim::ExperimentConfig transport_config() {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 12;
  cfg.samples_per_client = 40;
  cfg.rounds = 10;
  cfg.sample_prob = 0.5;
  cfg.compromised_fraction = 0.2;
  cfg.attack = sim::AttackKind::collapois;
  cfg.attack_start_round = 3;
  cfg.eval_every = 5;
  cfg.seed = 99;
  cfg.net.enabled = true;
  cfg.net.loss_prob = 0.2;
  cfg.net.corrupt_prob = 0.05;
  cfg.net.duplicate_prob = 0.1;
  cfg.net.deadline_ms = 55.0;
  cfg.net.over_sample = 0.5;
  return cfg;
}

void expect_rounds_identical(const sim::ExperimentResult& a,
                             const sim::ExperimentResult& b) {
  ASSERT_EQ(a.final_global.size(), b.final_global.size());
  EXPECT_EQ(a.final_global, b.final_global);  // element-exact
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].n_accepted, b.rounds[i].n_accepted);
    EXPECT_EQ(a.rounds[i].n_dropped, b.rounds[i].n_dropped);
    EXPECT_EQ(a.rounds[i].cohort_size, b.rounds[i].cohort_size);
    EXPECT_EQ(a.rounds[i].transport.msgs_sent, b.rounds[i].transport.msgs_sent);
    EXPECT_EQ(a.rounds[i].transport.lost, b.rounds[i].transport.lost);
    EXPECT_EQ(a.rounds[i].transport.retried, b.rounds[i].transport.retried);
    EXPECT_EQ(a.rounds[i].transport.deadline_dropped,
              b.rounds[i].transport.deadline_dropped);
    EXPECT_EQ(a.rounds[i].transport.excess_dropped,
              b.rounds[i].transport.excess_dropped);
    EXPECT_EQ(a.rounds[i].transport.arrival_p50_ms,
              b.rounds[i].transport.arrival_p50_ms);
    EXPECT_EQ(a.rounds[i].transport.arrival_max_ms,
              b.rounds[i].transport.arrival_max_ms);
  }
}

TEST(NetDeterminism, InvariantHoldsEveryRoundUnderCombinedFaults) {
  sim::ExperimentConfig cfg = transport_config();
  cfg.faults.dropout_prob = 0.15;  // compute-layer churn on top
  sim::RunOptions opts;
  opts.keep_telemetry = true;
  const sim::ExperimentResult result = sim::run_experiment(cfg, opts);
  ASSERT_EQ(result.telemetry.size(), cfg.rounds);
  bool saw_transport_drop = false;
  for (const auto& t : result.telemetry) {
    EXPECT_EQ(t.cohort_size, t.sampled_ids.size() + t.dropped_ids.size() +
                                 t.rejected_ids.size());
    EXPECT_EQ(t.drop_reasons.size(), t.dropped_ids.size());
    for (std::size_t i = 0; i < t.drop_reasons.size(); ++i) {
      saw_transport_drop = saw_transport_drop ||
                           t.drop_reasons[i] != fl::DropReason::compute;
    }
  }
  EXPECT_TRUE(saw_transport_drop) << "config never exercised the transport";
}

TEST(NetDeterminism, Threads1And4IdenticalUnderTransportFaults) {
  sim::ExperimentConfig cfg = transport_config();
  cfg.threads = 1;
  const sim::ExperimentResult sequential = sim::run_experiment(cfg);
  cfg.threads = 4;
  const sim::ExperimentResult parallel = sim::run_experiment(cfg);
  expect_rounds_identical(sequential, parallel);
}

TEST(NetDeterminism, CheckpointResumeIsBitExactUnderTransportFaults) {
  sim::ExperimentConfig cfg = transport_config();
  cfg.threads = 1;
  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  const std::string path = ::testing::TempDir() + "net_resume_ck.bin";
  cfg.threads = 4;
  sim::RunOptions save;
  save.checkpoint_save_path = path;
  save.checkpoint_round = cfg.rounds / 2;
  const sim::ExperimentResult partial = sim::run_experiment(cfg, save);
  EXPECT_EQ(partial.rounds.size(), cfg.rounds / 2);

  sim::RunOptions resume;
  resume.checkpoint_load_path = path;
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
  std::remove(path.c_str());

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);
  // The resumed transport totals continue from the checkpointed counters:
  // the second-half per-round records match the straight run's.
  ASSERT_EQ(resumed.rounds.size(), cfg.rounds - cfg.rounds / 2);
  for (std::size_t i = 0; i < resumed.rounds.size(); ++i) {
    const auto& sr = straight.rounds[cfg.rounds / 2 + i];
    const auto& rr = resumed.rounds[i];
    EXPECT_EQ(sr.transport.msgs_sent, rr.transport.msgs_sent);
    EXPECT_EQ(sr.transport.lost, rr.transport.lost);
    EXPECT_EQ(sr.n_accepted, rr.n_accepted);
  }
}

// --- checkpoint fingerprint guard ---------------------------------------

TEST(NetCheckpoint, FingerprintIgnoresStaleFieldsWhenDisabled) {
  net::NetConfig a;
  net::NetConfig b;
  b.loss_prob = 0.9;  // stale value in a switched-off transport
  EXPECT_EQ(sim::net_fingerprint(a), sim::net_fingerprint(b));
  a.enabled = true;
  b.enabled = true;
  EXPECT_NE(sim::net_fingerprint(a), sim::net_fingerprint(b));
  b.loss_prob = a.loss_prob;
  EXPECT_EQ(sim::net_fingerprint(a), sim::net_fingerprint(b));
  b.seed ^= 1;
  EXPECT_NE(sim::net_fingerprint(a), sim::net_fingerprint(b));
}

TEST(NetCheckpoint, ResumeUnderDifferentNetworkModelFailsLoudly) {
  sim::ExperimentConfig cfg = transport_config();
  const std::string path = ::testing::TempDir() + "net_mismatch_ck.bin";
  sim::RunOptions save;
  save.checkpoint_save_path = path;
  save.checkpoint_round = 3;
  (void)sim::run_experiment(cfg, save);

  sim::RunOptions resume;
  resume.checkpoint_load_path = path;
  sim::ExperimentConfig changed = cfg;
  changed.net.loss_prob = 0.35;
  try {
    (void)sim::run_experiment(changed, resume);
    FAIL() << "resume under a different network model must throw";
  } catch (const std::invalid_argument& e) {
    // The error names the transport, not a generic config mismatch.
    EXPECT_NE(std::string(e.what()).find("network model"), std::string::npos);
  }

  // Toggling the transport off entirely fails the same way.
  sim::ExperimentConfig off = cfg;
  off.net.enabled = false;
  EXPECT_THROW((void)sim::run_experiment(off, resume), std::invalid_argument);

  // The unchanged config still resumes.
  const sim::ExperimentResult ok = sim::run_experiment(cfg, resume);
  EXPECT_EQ(ok.rounds.size(), cfg.rounds - 3);
  std::remove(path.c_str());
}

TEST(NetCheckpoint, MetaFedRejectsTransport) {
  sim::ExperimentConfig cfg = transport_config();
  cfg.algorithm = sim::AlgorithmKind::metafed;
  cfg.attack = sim::AttackKind::none;
  EXPECT_THROW((void)sim::run_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace collapois
