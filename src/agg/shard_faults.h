// Infrastructure fault injection for the sharded aggregation tree
// (DESIGN.md §13).
//
// PR 1 made the *clients* unreliable; since the server became a
// distributed system itself (shard tree, DESIGN.md §12) its own
// components need the same treatment. A ShardFaultModel injects
// per-(shard, round, attempt) faults into the root's fan-out:
//
//  - crash:   the shard aggregator dies; its partial result never
//             arrives;
//  - timeout: the shard is alive but misses the root's deadline — from
//             the root's perspective indistinguishable from a crash
//             except in the telemetry label;
//  - corrupt: the shard delivers a damaged partial. The root verifies
//             every partial's payload digest before folding it (the
//             net::Envelope verify-before-parse discipline), so a
//             corrupt partial is DETECTED and discarded — damaged bytes
//             never reach the accumulator. The model therefore treats
//             detection as perfect and the attempt as failed.
//
// All three kinds have the same recovery semantics: the root retries
// the shard up to max_retries times with capped exponential backoff
// (virtual time — accounted, never slept), and on exhaustion fails the
// round OVER instead of failing it: streaming combiners hand the dead
// shard's row range to the next survivor, coordinate combiners
// recompute the lost column tiles across survivors. Both paths are
// bit-identical to the flat result by construction (see
// sharded_aggregator.h), so a degraded round is slower, never wrong.
//
// Determinism: decisions are counter-based — splitmix64 over
// (seed, shard, round, attempt) — exactly the fl::FaultModel design, so
// they are order-free, independent of thread scheduling, and free to
// replay across checkpoint/resume (the model holds no mutable state at
// all).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace collapois::agg {

enum class ShardFaultKind { none, crash, timeout, corrupt };

const char* shard_fault_kind_name(ShardFaultKind kind);

struct ShardFaultConfig {
  // Per-(shard, round, attempt) probabilities, evaluated in this
  // priority order: crash, then timeout, then corrupt (at most one
  // fault per attempt).
  double crash_prob = 0.0;
  double timeout_prob = 0.0;
  double corrupt_prob = 0.0;
  // Retries after the first failed attempt (total attempts per shard
  // per round = max_retries + 1).
  std::size_t max_retries = 2;
  // Capped exponential backoff between attempts, in VIRTUAL
  // milliseconds: backoff_base_ms * 2^attempt, capped at
  // backoff_cap_ms. Accounted in InfraStats::backoff_virtual_ms, never
  // slept — wall time stays fault-free.
  double backoff_base_ms = 10.0;
  double backoff_cap_ms = 80.0;
  // Stream selector for the counter-based decisions; independent of the
  // client-fault seed so the two fault planes fire on uncorrelated
  // cells.
  std::uint64_t seed = 0x5aa2dfa017ULL;
  // Per-shard forced faults (e.g. an always-crashing shard 0);
  // overrides the stochastic draw on EVERY attempt, so a pinned shard
  // is guaranteed to exhaust its retries and fail over — the property
  // tests use this to make failover deterministic.
  std::map<std::size_t, ShardFaultKind> pinned;

  bool any() const;
};

// Each probability finite in [0, 1] and their sum at most 1, backoffs
// finite and non-negative; throws std::invalid_argument with a
// "ShardFaultConfig: ..." message otherwise.
void validate(const ShardFaultConfig& config);

// Pure fault oracle for the aggregation tree. No mutable state: decide()
// is a function of (config, shard, round, attempt) only, so the model
// needs no serialization, no locking, and no ordering discipline — any
// combiner may consult it from any thread in any order.
class ShardFaultModel {
 public:
  // Throws std::invalid_argument when validate(config) does.
  explicit ShardFaultModel(ShardFaultConfig config);

  const ShardFaultConfig& config() const { return config_; }

  // The fault assignment for this (shard, round, attempt) cell.
  ShardFaultKind decide(std::size_t shard, std::size_t round,
                        std::size_t attempt) const;

  // Virtual backoff before retry `attempt` (1-based): capped
  // exponential over backoff_base_ms.
  double backoff_ms(std::size_t attempt) const;

 private:
  ShardFaultConfig config_;
};

}  // namespace collapois::agg
