// Deterministic checkpoint/resume for run_experiment.
//
// A checkpoint freezes every piece of state the round loop mutates —
// global params, round counter, the experiment's top-level RNG, the
// attacker's Trojaned model X (once armed), the fault model's stale-model
// cache, and the algorithm blob (server + aggregator + per-client state,
// see fl/state.h) — so a run can be stopped mid-experiment and resumed
// BIT-EXACTLY: a straight 2N-round run and an N-round run + checkpoint +
// N-round resume produce identical final parameters and identical final
// client-level evaluations (tested in tests/test_checkpoint.cpp).
//
// Resume reconstructs the experiment from the same ExperimentConfig
// (construction is deterministic given cfg.seed) and then overwrites the
// mutable state from the checkpoint. A fingerprint of the
// identity-defining config fields guards against resuming under a
// different configuration.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.h"
#include "stats/rng.h"
#include "tensor/vecops.h"

namespace collapois::sim {

struct Checkpoint {
  std::uint64_t fingerprint = 0;
  // Fingerprint of the transport configuration (net_fingerprint below).
  // Kept SEPARATE from `fingerprint` so a resume under a different
  // network model fails with a transport-specific error message instead
  // of a generic config mismatch.
  std::uint64_t net_fingerprint = 0;
  // Fingerprint of the round-engine selection and its knobs
  // (engine_fingerprint below). Separate for the same reason as
  // net_fingerprint: a sync checkpoint resumed under buffered_async (or
  // under different K/T/staleness knobs) would splice two different
  // schedules — the mismatch must fail loudly, naming the engine.
  std::uint64_t engine_fingerprint = 0;
  // Fingerprint of the scale-out topology (scale_fingerprint below).
  // Separate so a resume under a different shard count or population
  // mode fails naming --shards/--lazy-clients rather than with a generic
  // config mismatch. Lazy runs are a different deterministic universe
  // than eager ones (per-client derived data seeds), and the lazy
  // algorithm blob stores only the materialized subset — neither can be
  // spliced across modes.
  std::uint64_t scale_fingerprint = 0;
  // Fingerprint of the update-codec config (codec_fingerprint below).
  // Separate so a resume under a different codec fails naming
  // --codec/--codec-topk: a lossy codec's quantization
  // noise is part of the trajectory, so splicing codecs would silently
  // change the experiment mid-run.
  std::uint64_t codec_fingerprint = 0;
  std::size_t rounds_completed = 0;
  stats::Rng::State run_rng;
  // The attacker's shared Trojaned model (empty while unarmed).
  tensor::FlatVec trojaned_model;
  // Serialized FaultModel history (empty when no faults configured).
  std::vector<std::uint8_t> fault_state;
  // Serialized NetworkModel state — cumulative transport totals and the
  // (structurally empty) in-flight queue marker; empty when the transport
  // is disabled.
  std::vector<std::uint8_t> net_state;
  // Serialized FlAlgorithm state (fl/algorithm.h save_state).
  std::vector<std::uint8_t> algo_state;
};

// Hash of the config fields that define the identity of a run; resuming
// with a config whose fingerprint differs is an error.
std::uint64_t config_fingerprint(const ExperimentConfig& config);

// Hash of the transport configuration. Every disabled config maps to the
// same fingerprint (stale field values in a switched-off transport are
// irrelevant); enabled configs hash every decision-relevant field,
// including the seed.
std::uint64_t net_fingerprint(const net::NetConfig& config);

// Hash of the round-engine selection. Every sync config maps to the same
// fingerprint (the async knobs are inert under sync); buffered_async
// configs hash the aggregation triggers and the staleness cutoff, since
// any of them changes the admission schedule.
std::uint64_t engine_fingerprint(const ExperimentConfig& config);

// Hash of the scale-out topology: shard count and population mode.
// Sharding is bit-transparent for capability-declared defenses, but the
// shard count is fingerprinted anyway — it is part of the run's declared
// topology, and pinning it keeps the invariance property testable rather
// than assumed. Every flat-eager config (shards == 1, lazy off) maps to
// the same fingerprint.
std::uint64_t scale_fingerprint(const ExperimentConfig& config);

// Hash of the update-codec config: the kind plus the knob that matters
// for it (the fraction for topk). Every identity config maps
// to the same fingerprint. The SIMD dispatch tier is excluded — codec
// tiers are bit-identical, so checkpoints are tier-portable.
std::uint64_t codec_fingerprint(const net::CodecConfig& config);

// Thrown by decode_checkpoint when the image's format version is not the
// one this build reads. A version mismatch is not damage: the file is
// intact but was written by another build, so CheckpointStore does not
// fall back past it to an older generation. The message names the file
// (`context`) and both versions.
class CheckpointVersionError : public std::runtime_error {
 public:
  CheckpointVersionError(const std::string& context, std::uint64_t found,
                         std::uint64_t supported);
};

// Serializes the checkpoint into the on-disk image: a fixed header
// (magic, version 8, payload size, word-wise FNV-1a payload digest —
// net::payload_checksum, the net::Envelope verify-before-parse
// discipline) followed by the payload (the field sequence of
// Checkpoint). The image is built in one buffer of its exact size; the
// header's size and digest are patched in after the payload is written.
// decode_checkpoint verifies the header BEFORE parsing a single payload
// field, so truncation and bit flips anywhere in the file fail loudly
// with `context` (typically the file path) and the reason — never UB,
// never an attacker-sized allocation. encode/decode are exposed so
// CheckpointStore and the negative-path tests can work on in-memory
// images.
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ck);
Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes,
                             const std::string& context);

// Atomic durable write: encode into `path + ".tmp"`, flush to disk, then
// rename over `path` — a crash mid-save leaves the previous checkpoint
// intact (the chaos harness's mid-save phase exercises exactly this).
// Throws std::runtime_error naming the path and the errno text on any
// open/write/flush/rename failure.
void save_checkpoint_file(const std::string& path, const Checkpoint& ck);
Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace collapois::sim
