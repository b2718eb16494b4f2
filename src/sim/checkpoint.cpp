#include "sim/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "fl/state.h"
#include "net/envelope.h"

namespace collapois::sim {

namespace {

constexpr std::uint64_t kMagic = 0x434f4c4c41504b54ULL;  // "COLLAPKT"
// v2: net_fingerprint + net_state (the simulated transport layer).
// v3: engine_fingerprint (the round-engine selection; the engine's own
//     mutable state rides inside algo_state via Server::save_state).
// v4: scale_fingerprint (shard topology + population mode; a lazy
//     population's algo_state stores only the materialized subset).
// v5: durability header — the body moved behind a (payload_size, FNV-1a
//     digest) pair verified BEFORE parsing, so truncation and bit flips
//     fail loudly instead of feeding damaged bytes to the StateReader.
// v6: codec_fingerprint (the update-codec config; lossy quantization
//     noise shapes the trajectory, so cross-codec resume must fail) and
//     the NetworkModel state grew its bytes-on-wire totals.
// v7: config_fingerprint covers every trajectory-shaping field (local
//     SGD, defense parameters, target label, attack and Trojan-training
//     configs); the int8 codec lost its bits knob.
// v8: the payload digest is the word-wise FNV-1a of net::payload_checksum
//     (8-byte words, byte tail, length) instead of byte-serial FNV-1a.
constexpr std::uint64_t kVersion = 8;
// Header: magic, version, payload_size, digest — 4 u64 fields.
constexpr std::size_t kHeaderBytes = 32;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

// Mixes each value in order: doubles by bit pattern, integers, bools and
// enums by value.
template <typename... Ts>
std::uint64_t mix_all(std::uint64_t h, Ts... vs) {
  auto one = [&h](auto v) {
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      h = mix_double(h, v);
    } else {
      h = mix(h, static_cast<std::uint64_t>(v));
    }
  };
  (one(vs), ...);
  return h;
}

std::uint64_t mix_sgd(std::uint64_t h, const nn::SgdConfig& s) {
  return mix_all(h, s.learning_rate, s.batch_size, s.epochs, s.weight_decay,
                 s.grad_clip);
}

[[noreturn]] void fail_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error("save_checkpoint_file: " + what + " for " + path +
                           ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t config_fingerprint(const ExperimentConfig& c) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = mix_all(h, c.seed, c.dataset, c.algorithm, c.attack, c.defense,
              c.n_clients, c.samples_per_client, c.attack_start_round,
              c.alpha, c.compromised_fraction, c.sample_prob, c.server_lr,
              c.update_norm_ceiling);
  h = mix_all(h, c.target_label, c.aux_validation_only, c.feddc_penalty,
              c.metafed_distill_weight);
  h = mix_sgd(h, c.local_sgd);
  const defense::DefenseParams& d = c.defense_params;
  h = mix_all(h, d.clip, d.noise_std, d.noise_multiplier, d.assumed_byzantine,
              d.multi_k, d.trim_fraction, d.rlr_threshold, d.sign_step,
              d.flare_temperature, d.crfl_param_clip, d.crfl_noise_std,
              d.ditto_lambda);
  h = mix_all(h, c.collapois.psi_a, c.collapois.psi_b, c.collapois.clip,
              c.collapois.tau, c.collapois.blend_fraction,
              c.collapois.mimic_benign_norm);
  h = mix_all(h, c.dpois.target_label, c.dpois.poison_fraction, c.mrepl.boost,
              c.mrepl.clip, c.dba.target_label, c.dba.poison_fraction,
              c.trojan_train.target_label, c.trojan_train.poison_fraction);
  h = mix_sgd(h, c.trojan_train.sgd);
  h = mix_all(h, c.faults.seed, c.faults.dropout_prob, c.faults.straggler_prob,
              c.faults.corrupt_prob, c.faults.straggler_staleness);
  // The kernel set is INCLUDED: naive and blocked kernels produce
  // different float rounding, so resuming a checkpoint under the other
  // set would silently splice two numerically different trajectories.
  // Only the KIND is covered — the runtime ISA dispatch tier
  // (kernels/cpu_dispatch.h) is deliberately excluded: one binary must
  // write a checkpoint on an AVX2 host and resume it on a scalar-only
  // host. Coordinate defense paths are bit-exact across tiers (the
  // property suites enforce it), and GEMM tiers differ only at FMA
  // rounding level — the same order of difference the tolerance gates
  // already accept between hosts.
  h = mix(h, static_cast<std::uint64_t>(c.kernels));
  // Same rationale for the defense-kernel set: Krum/FLARE distances round
  // differently under the gram-based fast path than under the naive
  // loops, so a checkpoint is pinned to the impl it was written under.
  h = mix(h, static_cast<std::uint64_t>(c.defense_impl));
  // cfg.rounds is deliberately excluded: resuming with a larger round
  // budget than the checkpointed run is a supported way to extend an
  // experiment. cfg.threads is excluded too: the parallel runtime is
  // bit-deterministic for any thread count (ordered reduction, see
  // DESIGN.md §7), so a checkpoint taken at one thread count may resume
  // at another. cfg.net is excluded as well — the transport config has
  // its own fingerprint (net_fingerprint below) so a mismatch there can
  // produce a transport-specific error. cfg.shard_faults is excluded on
  // purpose: shard faults change WHO computes each partial, never WHAT
  // is computed (failover is bit-exact, DESIGN.md §13), so a checkpoint
  // may legally resume under a different shard-fault profile.
  return h;
}

std::uint64_t net_fingerprint(const net::NetConfig& c) {
  std::uint64_t h = 0x452821e638d01377ULL;
  h = mix(h, c.enabled ? 1 : 0);
  if (!c.enabled) return h;  // stale fields of a switched-off transport
  h = mix(h, c.seed);
  h = mix_double(h, c.loss_prob);
  h = mix_double(h, c.corrupt_prob);
  h = mix_double(h, c.duplicate_prob);
  h = mix_double(h, c.latency_min_ms);
  h = mix_double(h, c.latency_max_ms);
  h = mix_double(h, c.deadline_ms);
  h = mix(h, c.max_retries);
  h = mix_double(h, c.backoff_base_ms);
  h = mix_double(h, c.backoff_cap_ms);
  h = mix_double(h, c.over_sample);
  return h;
}

std::uint64_t engine_fingerprint(const ExperimentConfig& c) {
  std::uint64_t h = 0x13198a2e03707344ULL;
  h = mix(h, static_cast<std::uint64_t>(c.round_engine));
  if (c.round_engine == fl::RoundEngineKind::sync) return h;
  h = mix(h, c.async.k);
  h = mix_double(h, c.async.t_ms);
  h = mix(h, c.async.max_staleness);
  return h;
}

std::uint64_t scale_fingerprint(const ExperimentConfig& c) {
  std::uint64_t h = 0xa4093822299f31d0ULL;
  h = mix(h, c.shards);
  h = mix(h, c.lazy_clients ? 1 : 0);
  return h;
}

std::uint64_t codec_fingerprint(const net::CodecConfig& c) {
  std::uint64_t h = 0x082efa98ec4e6c89ULL;
  h = mix(h, static_cast<std::uint64_t>(c.kind));
  // Only topk has a knob: every identity/fp16/int8 config maps to one
  // fingerprint per kind regardless of a stale topk_fraction.
  if (c.kind == net::CodecKind::topk) h = mix_double(h, c.topk_fraction);
  // The dispatch TIER is deliberately excluded, mirroring the kernel-set
  // rationale above but stronger: the codec tiers are bit-identical, so
  // a checkpoint written on an AVX2 host resumes exactly anywhere.
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ck) {
  // One buffer holds the whole image: reserved at its exact size, written
  // header-first with placeholder size and digest, which are patched in
  // once the payload is in place — the multi-MB state is copied once,
  // with no separate payload buffer or joined copy beside it.
  constexpr std::size_t kU64 = sizeof(std::uint64_t);
  // Fixed fields: five fingerprints, rounds_completed, the run RNG (state
  // words, cached normal, flag) and the four length prefixes.
  const std::size_t payload_size =
      kU64 * (5 + 1 + std::size(ck.run_rng.s) + 2 + 4) +
      sizeof(float) * ck.trojaned_model.size() +
      ck.fault_state.size() + ck.net_state.size() + ck.algo_state.size();
  fl::StateWriter image;
  image.reserve(kHeaderBytes + payload_size);
  image.write_u64(kMagic);
  image.write_u64(kVersion);
  image.write_size(0);  // payload_size, patched below
  image.write_u64(0);   // digest, patched below
  image.write_u64(ck.fingerprint);
  image.write_u64(ck.net_fingerprint);
  image.write_u64(ck.engine_fingerprint);
  image.write_u64(ck.scale_fingerprint);
  image.write_u64(ck.codec_fingerprint);
  image.write_size(ck.rounds_completed);
  for (std::uint64_t s : ck.run_rng.s) image.write_u64(s);
  image.write_double(ck.run_rng.cached_normal);
  image.write_bool(ck.run_rng.has_cached_normal);
  image.write_floats(ck.trojaned_model);
  image.write_bytes(ck.fault_state);
  image.write_bytes(ck.net_state);
  image.write_bytes(ck.algo_state);

  std::vector<std::uint8_t> out = image.take();
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(out).subspan(kHeaderBytes);
  const std::uint64_t size_field = payload.size();
  const std::uint64_t digest = net::payload_checksum(payload);
  // Header fields are little-endian u64s (fl/state asserts the host is).
  std::memcpy(out.data() + 2 * kU64, &size_field, kU64);
  std::memcpy(out.data() + 3 * kU64, &digest, kU64);
  return out;
}

CheckpointVersionError::CheckpointVersionError(const std::string& context,
                                               std::uint64_t found,
                                               std::uint64_t supported)
    : std::runtime_error("decode_checkpoint: unsupported version " +
                         std::to_string(found) + " in " + context +
                         " (this build reads version " +
                         std::to_string(supported) + ")") {}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes,
                             const std::string& context) {
  // Header verification first; no payload field is parsed until the
  // digest proves the payload intact (net::Envelope discipline).
  if (bytes.size() < kHeaderBytes) {
    throw std::runtime_error("decode_checkpoint: truncated header in " +
                             context);
  }
  fl::StateReader header(bytes.subspan(0, kHeaderBytes));
  if (header.read_u64() != kMagic) {
    throw std::runtime_error("decode_checkpoint: bad magic in " + context);
  }
  if (const std::uint64_t version = header.read_u64(); version != kVersion) {
    throw CheckpointVersionError(context, version, kVersion);
  }
  const std::size_t payload_size = header.read_size();
  const std::uint64_t digest = header.read_u64();
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  if (payload.size() < payload_size) {
    throw std::runtime_error(
        "decode_checkpoint: truncated payload in " + context + " (have " +
        std::to_string(payload.size()) + " of " +
        std::to_string(payload_size) + " bytes)");
  }
  if (payload.size() > payload_size) {
    throw std::runtime_error("decode_checkpoint: trailing bytes in " +
                             context);
  }
  if (net::payload_checksum(payload) != digest) {
    throw std::runtime_error("decode_checkpoint: payload digest mismatch in " +
                             context + " (file damaged)");
  }

  fl::StateReader r(payload);
  Checkpoint ck;
  ck.fingerprint = r.read_u64();
  ck.net_fingerprint = r.read_u64();
  ck.engine_fingerprint = r.read_u64();
  ck.scale_fingerprint = r.read_u64();
  ck.codec_fingerprint = r.read_u64();
  ck.rounds_completed = r.read_size();
  for (std::uint64_t& s : ck.run_rng.s) s = r.read_u64();
  ck.run_rng.cached_normal = r.read_double();
  ck.run_rng.has_cached_normal = r.read_bool();
  ck.trojaned_model = r.read_floats();
  ck.fault_state = r.read_bytes();
  ck.net_state = r.read_bytes();
  ck.algo_state = r.read_bytes();
  if (!r.exhausted()) {
    throw std::runtime_error("decode_checkpoint: trailing payload bytes in " +
                             context);
  }
  return ck;
}

void save_checkpoint_file(const std::string& path, const Checkpoint& ck) {
  const std::vector<std::uint8_t> image = encode_checkpoint(ck);

  // Durable atomic write (cstdio for fflush+fsync): a crash at any point
  // leaves either the old file or the new one, never a torn hybrid.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail_errno("cannot open temp file", tmp);
  if (std::fwrite(image.data(), 1, image.size(), f) != image.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    fail_errno("write failed", tmp);
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    fail_errno("flush failed", tmp);
  }
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    fail_errno("fsync failed", tmp);
  }
#endif
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    fail_errno("close failed", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail_errno("rename failed", tmp + " -> " + path);
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint_file: cannot open " + path +
                             ": " + std::strerror(errno));
  }
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes, path);
}

}  // namespace collapois::sim
