// The update-codec layer (src/net/codec.h, DESIGN.md §15): config
// parsing/validation and the per-link negotiation, the binary16
// conversion contract, lossy round-trip tolerances on adversarial
// tensors (odd lengths, zeros, subnormals, large magnitudes),
// bit-identical encoded bytes across the scalar/avx2 dispatch
// tiers, the poison-marker path for non-finite deltas, Envelope
// integration (checksum-before-parse on encoded payloads, bytes-on-wire
// accounting), end-to-end identity exactness across both round engines
// and the sharded tree, and the codec checkpoint fingerprint (cross-
// codec resume must fail loudly).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "fl/state.h"
#include "kernels/cpu_dispatch.h"
#include "net/codec.h"
#include "net/envelope.h"
#include "net/network_model.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"

namespace collapois {
namespace {

using net::CodecConfig;
using net::CodecKind;

CodecConfig make_codec(CodecKind kind, double topk = 0.1) {
  CodecConfig c;
  c.kind = kind;
  c.topk_fraction = topk;
  return c;
}

std::vector<std::uint8_t> encode_bytes(std::span<const float> delta,
                                       const CodecConfig& config) {
  fl::StateWriter w;
  net::encode_delta(w, delta, config);
  return w.take();
}

tensor::FlatVec decode_bytes(const std::vector<std::uint8_t>& bytes,
                             const CodecConfig& config) {
  fl::StateReader r(bytes);
  tensor::FlatVec out = net::decode_delta(r, config);
  EXPECT_TRUE(r.exhausted());
  return out;
}

// Adversarial tensor: a mix of zeros, subnormals (float and half range),
// normal values, and large magnitudes past the half range, deterministic
// per (n, seed).
tensor::FlatVec adversarial_delta(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  tensor::FlatVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0: v[i] = 0.0f; break;
      case 1: v[i] = -0.0f; break;
      case 2: v[i] = std::numeric_limits<float>::denorm_min(); break;
      case 3: v[i] = unit(gen) * 1e-6f; break;  // half-subnormal range
      case 4: v[i] = unit(gen); break;
      case 5: v[i] = unit(gen) * 1e4f; break;
      default: v[i] = unit(gen) * 3e38f; break;  // past the half range
    }
  }
  return v;
}

const std::vector<std::size_t> kLengths = {0, 1, 3, 7, 8, 17, 64, 193, 1024};

// --- config / negotiation ----------------------------------------------

TEST(CodecConfigTest, NamesAndParseRoundTrip) {
  for (const auto kind : {CodecKind::identity, CodecKind::fp16,
                          CodecKind::int8, CodecKind::topk}) {
    EXPECT_EQ(net::parse_codec_kind(net::codec_kind_name(kind)), kind);
  }
  EXPECT_FALSE(net::codec_is_lossy(CodecKind::identity));
  EXPECT_TRUE(net::codec_is_lossy(CodecKind::fp16));
  EXPECT_TRUE(net::codec_is_lossy(CodecKind::int8));
  EXPECT_TRUE(net::codec_is_lossy(CodecKind::topk));
}

TEST(CodecConfigTest, ParseRejectsUnknownNamesLoudly) {
  for (const std::string bad : {"", "fp32", "identity ", "INT8", "top-k"}) {
    try {
      (void)net::parse_codec_kind(bad);
      FAIL() << "parse_codec_kind must reject '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("identity | fp16 | int8 | topk"),
                std::string::npos);
    }
  }
}

TEST(CodecConfigTest, ValidateRejectsBadKnobs) {
  CodecConfig topk = make_codec(CodecKind::topk);
  for (const double f : {0.0, -0.1, 1.5,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    topk.topk_fraction = f;
    EXPECT_THROW(net::validate_codec(topk), std::invalid_argument) << f;
  }
  topk.topk_fraction = 1.0;  // keep-all is legal
  EXPECT_NO_THROW(net::validate_codec(topk));

  // The fraction's range holds whatever the kind: a stale out-of-range
  // value is refused even where topk is not selected.
  for (const CodecKind kind :
       {CodecKind::identity, CodecKind::fp16, CodecKind::int8}) {
    CodecConfig other = make_codec(kind);
    EXPECT_NO_THROW(net::validate_codec(other));
    other.topk_fraction = -3.0;
    EXPECT_THROW(net::validate_codec(other), std::invalid_argument);
  }
}

TEST(CodecConfigTest, NegotiationFallsBackToIdentity) {
  const CodecConfig offer = make_codec(CodecKind::topk, 0.25);
  const CodecConfig agreed =
      net::negotiate_codec(offer, net::codec_capability_all());
  EXPECT_EQ(agreed.kind, CodecKind::topk);
  EXPECT_EQ(agreed.topk_fraction, 0.25);

  // A client that lacks the offered codec falls back to identity.
  const std::uint32_t identity_only =
      1u << static_cast<std::uint32_t>(CodecKind::identity);
  const CodecConfig fallback = net::negotiate_codec(offer, identity_only);
  EXPECT_EQ(fallback.kind, CodecKind::identity);
}

// --- binary16 conversion ------------------------------------------------

TEST(CodecHalf, SpecialValuesConvertExactly) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(net::codec_float_to_half(0.0f), 0x0000);
  EXPECT_EQ(net::codec_float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(net::codec_float_to_half(1.0f), 0x3c00);
  EXPECT_EQ(net::codec_float_to_half(-2.0f), 0xc000);
  EXPECT_EQ(net::codec_float_to_half(65504.0f), 0x7bff);  // half max
  EXPECT_EQ(net::codec_float_to_half(65536.0f), 0x7c00);  // overflows to inf
  EXPECT_EQ(net::codec_float_to_half(inf), 0x7c00);
  EXPECT_EQ(net::codec_float_to_half(-inf), 0xfc00);
  const float nan_back = net::codec_half_to_float(net::codec_float_to_half(
      std::numeric_limits<float>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(nan_back));
}

TEST(CodecHalf, EveryHalfBitPatternRoundTripsThroughFloat) {
  // half -> float -> half is the identity for every finite pattern and
  // for inf; NaN payloads may canonicalize but must stay NaN.
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = net::codec_half_to_float(h);
    const std::uint16_t back = net::codec_float_to_half(f);
    const bool is_nan = (h & 0x7fffu) > 0x7c00u;
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << bits;
    } else {
      EXPECT_EQ(back, h) << std::hex << bits;
    }
  }
}

TEST(CodecHalf, NormalRangeRelativeErrorIsBounded) {
  std::mt19937 gen(7);
  std::uniform_real_distribution<float> mag(-5.0f, 5.0f);
  for (int i = 0; i < 20000; ++i) {
    const float x = std::ldexp(mag(gen), (i % 25) - 10);
    if (std::fabs(x) < 6.2e-5f || std::fabs(x) > 65000.0f) continue;
    const float back =
        net::codec_half_to_float(net::codec_float_to_half(x));
    EXPECT_LE(std::fabs(back - x), std::ldexp(std::fabs(x), -11))
        << "x=" << x;
  }
}

// --- round-trip tolerances ----------------------------------------------

TEST(CodecRoundTrip, IdentityIsBitExact) {
  for (const std::size_t n : kLengths) {
    const tensor::FlatVec delta = adversarial_delta(n, 11 + n);
    const auto bytes = encode_bytes(delta, make_codec(CodecKind::identity));
    const tensor::FlatVec back =
        decode_bytes(bytes, make_codec(CodecKind::identity));
    ASSERT_EQ(back.size(), n);
    if (n != 0) {
      EXPECT_EQ(std::memcmp(back.data(), delta.data(), 4 * n), 0) << n;
    }
  }
}

TEST(CodecRoundTrip, Fp16MatchesScalarReferencePerElement) {
  for (const std::size_t n : kLengths) {
    const tensor::FlatVec delta = adversarial_delta(n, 23 + n);
    const auto bytes = encode_bytes(delta, make_codec(CodecKind::fp16));
    const tensor::FlatVec back =
        decode_bytes(bytes, make_codec(CodecKind::fp16));
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float ref = net::codec_half_to_float(
          net::codec_float_to_half(delta[i]));
      EXPECT_EQ(std::memcmp(&back[i], &ref, 4), 0) << "n=" << n << " i=" << i;
    }
  }
}

TEST(CodecRoundTrip, Int8ErrorIsWithinHalfAStep) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;
    const tensor::FlatVec delta = adversarial_delta(n, 31 + n);
    float max_abs = 0.0f;
    for (const float x : delta) max_abs = std::max(max_abs, std::fabs(x));
    const float scale = max_abs / 127.0f;
    const auto bytes = encode_bytes(delta, make_codec(CodecKind::int8));
    const tensor::FlatVec back =
        decode_bytes(bytes, make_codec(CodecKind::int8));
    ASSERT_EQ(back.size(), n);
    // Half a quantization step, plus an absolute epsilon for the case
    // where max|x| is subnormal and the scale itself underflows to zero.
    const float bound =
        scale * 0.5000001f + std::numeric_limits<float>::min();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::fabs(back[i] - delta[i]), bound)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(CodecRoundTrip, Int8AllZeroTensorDecodesToZeros) {
  const tensor::FlatVec delta(37, 0.0f);
  const auto back = decode_bytes(encode_bytes(delta, make_codec(CodecKind::int8)),
                                 make_codec(CodecKind::int8));
  ASSERT_EQ(back.size(), delta.size());
  for (const float x : back) EXPECT_EQ(x, 0.0f);
}

// A zero-length update round-trips through every lossy codec. Its
// buffers are empty vectors whose data() may be null, and memcpy needs
// valid pointers even for zero bytes (UBSan reports the null).
TEST(CodecRoundTrip, ZeroLengthDeltaRoundTripsThroughEveryLossyCodec) {
  const tensor::FlatVec empty;
  for (const CodecKind kind :
       {CodecKind::fp16, CodecKind::int8, CodecKind::topk}) {
    const auto back =
        decode_bytes(encode_bytes(empty, make_codec(kind)), make_codec(kind));
    EXPECT_TRUE(back.empty()) << net::codec_kind_name(kind);
  }
}

TEST(CodecRoundTrip, TopkKeepsTheLargestMagnitudesAndZeroesTheRest) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;
    for (const double fraction : {0.1, 0.5, 1.0}) {
      const tensor::FlatVec delta = adversarial_delta(n, 41 + n);
      const CodecConfig cfg = make_codec(CodecKind::topk, fraction);
      const std::size_t k = std::min<std::size_t>(
          n, std::max<std::size_t>(
                 1, static_cast<std::size_t>(
                        std::ceil(fraction * static_cast<double>(n)))));
      const auto back = decode_bytes(encode_bytes(delta, cfg), cfg);
      ASSERT_EQ(back.size(), n);
      // The kept set is exactly the k largest |x| (with the deterministic
      // tie-break); every kept value round-trips through fp16, every
      // dropped coordinate is exactly zero.
      std::vector<float> mags(n);
      for (std::size_t i = 0; i < n; ++i) mags[i] = std::fabs(delta[i]);
      std::vector<float> order = mags;
      std::nth_element(order.begin(), order.begin() + (n - k), order.end());
      const float threshold = order[n - k];
      std::size_t nonzero = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (back[i] != 0.0f) {
          ++nonzero;
          EXPECT_GE(mags[i], threshold) << "kept a below-threshold coord";
        }
        if (mags[i] > threshold) {
          const float ref = net::codec_half_to_float(
              net::codec_float_to_half(delta[i]));
          if (ref == 0.0f) {
            // A kept value whose fp16 underflows to (-)0 scatters into
            // the zero vector as +0 — sign-of-zero is not preserved.
            EXPECT_EQ(back[i], 0.0f) << "n=" << n << " i=" << i;
          } else {
            EXPECT_EQ(std::memcmp(&back[i], &ref, 4), 0)
                << "n=" << n << " i=" << i;
          }
        }
      }
      EXPECT_LE(nonzero, k);
    }
  }
}

// --- tier dispatch ------------------------------------------------------

struct TierGuard {
  kernels::IsaTier entry = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(entry); }
};

// The wire-format contract: encoded payload bytes are BIT-IDENTICAL on
// every dispatch tier (stronger than the GEMM tolerance contract), so
// the Envelope checksum — and the decoded floats — never depend on the
// host CPU.
TEST(CodecTiers, EncodedBytesAreBitIdenticalAcrossTiers) {
  TierGuard guard;
  for (const auto kind : {CodecKind::identity, CodecKind::fp16,
                          CodecKind::int8, CodecKind::topk}) {
    for (const std::size_t n : kLengths) {
      const tensor::FlatVec delta = adversarial_delta(n, 53 + n);
      const CodecConfig cfg = make_codec(kind);
      kernels::set_active_tier(kernels::IsaTier::scalar);
      const auto ref_bytes = encode_bytes(delta, cfg);
      const auto ref_decoded = decode_bytes(ref_bytes, cfg);
      for (const auto tier : kernels::available_tiers()) {
        kernels::set_active_tier(tier);
        SCOPED_TRACE(testing::Message() << net::codec_kind_name(kind) << " n="
                                        << n << " tier="
                                        << kernels::isa_tier_name(tier));
        EXPECT_EQ(encode_bytes(delta, cfg), ref_bytes);
        const auto decoded = decode_bytes(ref_bytes, cfg);
        ASSERT_EQ(decoded.size(), ref_decoded.size());
        if (!decoded.empty()) {
          EXPECT_EQ(std::memcmp(decoded.data(), ref_decoded.data(),
                                4 * decoded.size()),
                    0);
        }
      }
    }
  }
}

// --- poison marker ------------------------------------------------------

TEST(CodecPoison, NonFiniteDeltasDecodeToAllNaN) {
  for (const auto kind :
       {CodecKind::fp16, CodecKind::int8, CodecKind::topk}) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      tensor::FlatVec delta = adversarial_delta(33, 61);
      delta[17] = bad;
      const CodecConfig cfg = make_codec(kind);
      const auto bytes = encode_bytes(delta, cfg);
      // The poison marker is tiny: no value payload crosses the wire.
      EXPECT_LT(bytes.size(), 40u);
      const auto back = decode_bytes(bytes, cfg);
      ASSERT_EQ(back.size(), delta.size());
      for (const float x : back) EXPECT_TRUE(std::isnan(x));
    }
  }
}

// --- malformed bodies ---------------------------------------------------

TEST(CodecMalformed, DecodersRejectStructurallyBrokenBodies) {
  // topk with k > n.
  {
    fl::StateWriter w;
    w.write_size(4);   // n
    w.write_bool(true);
    w.write_size(9);   // k > n
    fl::StateReader r(w.bytes());
    EXPECT_THROW((void)net::decode_delta(r, make_codec(CodecKind::topk)),
                 std::runtime_error);
  }
  // topk with an out-of-range index.
  {
    fl::StateWriter w;
    w.write_size(4);
    w.write_bool(true);
    w.write_size(1);
    const std::vector<std::uint8_t> idx = {7};  // index 7 >= n = 4
    w.write_bytes(idx);
    const std::vector<std::uint8_t> vals = {0, 0};
    w.write_bytes(vals);
    fl::StateReader r(w.bytes());
    EXPECT_THROW((void)net::decode_delta(r, make_codec(CodecKind::topk)),
                 std::runtime_error);
  }
  // fp16 blob whose length disagrees with n.
  {
    fl::StateWriter w;
    w.write_size(3);
    w.write_bool(true);
    const std::vector<std::uint8_t> blob = {1, 2};  // 2 bytes != 2 * 3
    w.write_bytes(blob);
    fl::StateReader r(w.bytes());
    EXPECT_THROW((void)net::decode_delta(r, make_codec(CodecKind::fp16)),
                 std::runtime_error);
  }
  // int8 with a negative scale.
  {
    fl::StateWriter w;
    w.write_size(2);
    w.write_bool(true);
    const float bad_scale = -1.0f;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &bad_scale, sizeof(bits));
    w.write_u64(bits);
    const std::vector<std::uint8_t> blob = {1, 2};
    w.write_bytes(blob);
    fl::StateReader r(w.bytes());
    EXPECT_THROW((void)net::decode_delta(r, make_codec(CodecKind::int8)),
                 std::runtime_error);
  }
}

// --- envelope integration -----------------------------------------------

fl::ClientUpdate sample_update(std::size_t n) {
  fl::ClientUpdate u;
  u.client_id = 5;
  u.weight = 1.5;
  u.status = fl::UpdateStatus::ok;
  u.staleness = 0;
  u.delta = adversarial_delta(n, 71);
  return u;
}

TEST(CodecEnvelope, EveryCodecRoundTripsThroughTheEnvelope) {
  const fl::ClientUpdate u = sample_update(129);
  for (const auto kind : {CodecKind::identity, CodecKind::fp16,
                          CodecKind::int8, CodecKind::topk}) {
    const net::Envelope env = net::encode_update(u, 3, make_codec(kind));
    EXPECT_EQ(env.codec, kind);
    EXPECT_EQ(env.fp32_bytes, 5 * 8 + 4 * u.delta.size());
    if (net::codec_is_lossy(kind)) {
      EXPECT_LT(env.payload.size(), env.fp32_bytes)
          << net::codec_kind_name(kind);
    } else {
      EXPECT_EQ(env.payload.size(), env.fp32_bytes);
    }
    const auto decoded = net::decode_update(env);
    ASSERT_TRUE(decoded.has_value()) << net::codec_kind_name(kind);
    EXPECT_EQ(decoded->client_id, u.client_id);
    EXPECT_EQ(decoded->weight, u.weight);
    ASSERT_EQ(decoded->delta.size(), u.delta.size());
  }
}

TEST(CodecEnvelope, TwoArgOverloadIsTheIdentityWireFormat) {
  const fl::ClientUpdate u = sample_update(64);
  const net::Envelope legacy = net::encode_update(u, 9);
  const net::Envelope ident =
      net::encode_update(u, 9, make_codec(CodecKind::identity));
  EXPECT_EQ(legacy.payload, ident.payload);
  EXPECT_EQ(legacy.checksum, ident.checksum);
  EXPECT_EQ(legacy.codec, CodecKind::identity);
}

TEST(CodecEnvelope, CorruptedEncodedPayloadFailsTheChecksumBeforeParse) {
  const fl::ClientUpdate u = sample_update(200);
  for (const auto kind : {CodecKind::fp16, CodecKind::int8, CodecKind::topk}) {
    net::Envelope env = net::encode_update(u, 1, make_codec(kind));
    // Flip one byte anywhere in the ENCODED payload: the checksum covers
    // the bytes on the wire, so detection happens before any codec parse.
    for (const std::size_t at :
         {std::size_t{0}, env.payload.size() / 2, env.payload.size() - 1}) {
      net::Envelope damaged = env;
      damaged.payload[at] ^= 0x40;
      EXPECT_FALSE(net::decode_update(damaged).has_value())
          << net::codec_kind_name(kind) << " at=" << at;
    }
    // Truncation too.
    net::Envelope truncated = env;
    truncated.payload.resize(env.payload.size() / 2);
    EXPECT_FALSE(net::decode_update(truncated).has_value());
  }
}

TEST(CodecEnvelope, UnknownCodecHeaderIsRejected) {
  const fl::ClientUpdate u = sample_update(16);
  net::Envelope env = net::encode_update(u, 0);
  env.codec = static_cast<CodecKind>(200);  // forged/damaged header field
  EXPECT_FALSE(net::decode_update(env).has_value());
}

TEST(CodecEnvelope, TransmitAccountsEncodedBytesOnTheWire) {
  net::NetConfig ncfg;
  ncfg.enabled = true;
  const net::NetworkModel model(ncfg);
  const fl::ClientUpdate u = sample_update(500);
  for (const auto kind : {CodecKind::identity, CodecKind::int8}) {
    const net::Envelope env = net::encode_update(u, 2, make_codec(kind));
    net::TransportStats stats;
    const net::Delivery d = model.transmit(u.client_id, 2, env, &stats);
    ASSERT_EQ(d.status, net::DeliveryStatus::delivered);
    EXPECT_EQ(stats.fp32_bytes_sent, env.fp32_bytes);
    EXPECT_EQ(stats.wire_bytes_sent, env.payload.size());
    EXPECT_EQ(stats.wire_bytes_received, env.payload.size());
  }
  // accumulate() carries the byte counters.
  net::TransportStats a;
  a.fp32_bytes_sent = 10;
  a.wire_bytes_sent = 4;
  a.wire_bytes_received = 3;
  net::TransportStats b = a;
  b.accumulate(a);
  EXPECT_EQ(b.fp32_bytes_sent, 20u);
  EXPECT_EQ(b.wire_bytes_sent, 8u);
  EXPECT_EQ(b.wire_bytes_received, 6u);
}

// --- end-to-end: identity exactness and lossy compression ---------------

sim::ExperimentConfig zero_fault_config(fl::RoundEngineKind engine) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 12;
  cfg.samples_per_client = 40;
  cfg.rounds = 8;
  cfg.sample_prob = 0.5;
  cfg.compromised_fraction = 0.2;
  cfg.attack = sim::AttackKind::collapois;
  cfg.attack_start_round = 3;
  cfg.seed = 99;
  cfg.round_engine = engine;
  cfg.net.enabled = true;
  // Zero-fault, zero-latency: the wire is transparent, so the run must
  // be element-exact equal to the transport-disabled path — through the
  // codec layer's encode/decode, under both engines.
  cfg.net.latency_min_ms = 0.0;
  cfg.net.latency_max_ms = 0.0;
  return cfg;
}

TEST(CodecExperiment, IdentityIsExactAgainstCodecDisabledOnBothEngines) {
  for (const auto engine :
       {fl::RoundEngineKind::sync, fl::RoundEngineKind::buffered_async}) {
    sim::ExperimentConfig with_codec = zero_fault_config(engine);
    with_codec.codec = make_codec(CodecKind::identity);
    const sim::ExperimentResult a = sim::run_experiment(with_codec);

    sim::ExperimentConfig disabled = zero_fault_config(engine);
    disabled.net.enabled = false;
    const sim::ExperimentResult b = sim::run_experiment(disabled);

    ASSERT_EQ(a.final_global.size(), b.final_global.size());
    EXPECT_EQ(a.final_global, b.final_global)
        << "engine=" << fl::round_engine_name(engine);
  }
}

TEST(CodecExperiment, IdentityIsExactThroughTheShardedTree) {
  sim::ExperimentConfig with_codec = zero_fault_config(fl::RoundEngineKind::sync);
  with_codec.shards = 3;
  with_codec.codec = make_codec(CodecKind::identity);
  const sim::ExperimentResult a = sim::run_experiment(with_codec);

  sim::ExperimentConfig disabled = with_codec;
  disabled.net.enabled = false;
  const sim::ExperimentResult b = sim::run_experiment(disabled);

  EXPECT_EQ(a.final_global, b.final_global);
}

TEST(CodecExperiment, LossyCodecsCompressTheWireAndStillTrain) {
  for (const auto kind : {CodecKind::fp16, CodecKind::int8, CodecKind::topk}) {
    sim::ExperimentConfig cfg = zero_fault_config(fl::RoundEngineKind::sync);
    cfg.codec = make_codec(kind);
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    for (const float x : r.final_global) ASSERT_TRUE(std::isfinite(x));
    std::size_t fp32 = 0;
    std::size_t wire = 0;
    for (const auto& rec : r.rounds) {
      fp32 += rec.transport.fp32_bytes_sent;
      wire += rec.transport.wire_bytes_sent;
    }
    ASSERT_GT(wire, 0u);
    const double ratio =
        static_cast<double>(fp32) / static_cast<double>(wire);
    const double floor = kind == CodecKind::fp16  ? 1.8
                         : kind == CodecKind::int8 ? 3.3
                                                   : 6.0;
    EXPECT_GE(ratio, floor) << net::codec_kind_name(kind);
  }
}

TEST(CodecExperiment, LossyCodecWithoutTransportFailsLoudly) {
  sim::ExperimentConfig cfg = zero_fault_config(fl::RoundEngineKind::sync);
  cfg.net.enabled = false;
  cfg.codec = make_codec(CodecKind::int8);
  try {
    (void)sim::run_experiment(cfg);
    FAIL() << "a lossy codec without the transport must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("codec"), std::string::npos);
  }
}

// --- checkpoint fingerprint ---------------------------------------------

TEST(CodecCheckpoint, FingerprintCoversTheKindAndItsKnobsOnly) {
  const auto ident = sim::codec_fingerprint(make_codec(CodecKind::identity));
  CodecConfig stale = make_codec(CodecKind::identity);
  stale.topk_fraction = 0.7;  // inert under identity
  EXPECT_EQ(sim::codec_fingerprint(stale), ident);

  const auto fp16 = sim::codec_fingerprint(make_codec(CodecKind::fp16));
  const auto int8 = sim::codec_fingerprint(make_codec(CodecKind::int8));
  const auto topk = sim::codec_fingerprint(make_codec(CodecKind::topk));
  const std::set<std::uint64_t> distinct = {ident, fp16, int8, topk};
  EXPECT_EQ(distinct.size(), 4u);

  // The topk fraction is part of the identity of the run.
  EXPECT_NE(sim::codec_fingerprint(make_codec(CodecKind::topk, 0.2)), topk);
}

TEST(CodecCheckpoint, CrossCodecResumeFailsLoudlyAndSameCodecIsBitExact) {
  sim::ExperimentConfig cfg = zero_fault_config(fl::RoundEngineKind::sync);
  cfg.codec = make_codec(CodecKind::fp16);
  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  const std::string path = ::testing::TempDir() + "codec_resume_ck.bin";
  sim::RunOptions save;
  save.checkpoint_save_path = path;
  save.checkpoint_round = cfg.rounds / 2;
  (void)sim::run_experiment(cfg, save);

  sim::RunOptions resume;
  resume.checkpoint_load_path = path;
  sim::ExperimentConfig changed = cfg;
  changed.codec = make_codec(CodecKind::int8);
  try {
    (void)sim::run_experiment(changed, resume);
    FAIL() << "cross-codec resume must throw";
  } catch (const std::invalid_argument& e) {
    // The error names the codec flags, not a generic config mismatch.
    EXPECT_NE(std::string(e.what()).find("--codec"), std::string::npos);
  }

  // Same codec resumes bit-exactly: lossy quantization is deterministic,
  // so the spliced trajectory equals the straight one.
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
  std::remove(path.c_str());
  EXPECT_EQ(resumed.final_global, straight.final_global);
}

}  // namespace
}  // namespace collapois
