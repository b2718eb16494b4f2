// The federated server: client sampling with probability q, round
// execution delegated to a pluggable round engine (fl/round_engine.h) —
// the synchronous barrier loop the paper evaluates, or the buffered
// asynchronous engine production FL serves traffic with — plus per-round
// telemetry for the angle/distance analyses (Figs. 3, 6, 7).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/aggregator.h"
#include "fl/client.h"
#include "fl/population.h"
#include "net/network_model.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"

namespace collapois::fl {

class RoundEngine;

// Which round engine drives the server (see fl/round_engine.h):
//  - sync:           one barrier round per run_round call — sample, train,
//                    collect, aggregate. Bit-exact with the pre-engine
//                    code path.
//  - buffered_async: event-driven cycles on the virtual clock — the
//                    server admits updates as they arrive, aggregates
//                    every K arrivals or every T virtual-ms with
//                    staleness-damped weights, and keeps multiple cohorts
//                    in flight. No barrier: stragglers and dropouts
//                    degrade throughput smoothly instead of stalling or
//                    skipping rounds.
enum class RoundEngineKind { sync, buffered_async };

const char* round_engine_name(RoundEngineKind kind);
RoundEngineKind parse_round_engine(const std::string& name);

// Knobs of the buffered-async engine (ignored by sync).
struct AsyncConfig {
  // Aggregate once K updates have been admitted into the buffer
  // (0 disables the K trigger). At least one of k / t_ms must be active.
  std::size_t k = 8;
  // ... or once T virtual milliseconds have passed since the previous
  // aggregation, whichever comes first (0 disables the T trigger).
  double t_ms = 0.0;
  // Discard updates more than this many rounds stale (total staleness:
  // compute-layer straggler lag + rounds spent in the buffer). Discards
  // are accounted as DropReason::stale_discarded.
  std::size_t max_staleness = 8;
};

// t_ms finite and non-negative, and at least one trigger (k > 0 or
// t_ms > 0) active; throws std::invalid_argument with an
// "AsyncConfig: ..." message otherwise. The engine checks it on
// construction, sim::run_experiment before any work starts.
void validate(const AsyncConfig& config);

struct ServerConfig {
  // Server learning rate lambda applied to the aggregated pseudo-gradient.
  double learning_rate = 1.0;
  // Independent per-client sampling probability q (Algorithm 1 line 5).
  double sample_prob = 0.01;
  // Quarantine any update whose L2 norm exceeds this ceiling (0 disables;
  // non-finite and wrong-dimension updates are always quarantined).
  double update_norm_ceiling = 0.0;
  // Worker pool for the client-training dispatch (not owned; nullptr runs
  // the cohort sequentially on the calling thread). Results are
  // bit-identical for any pool size: sampling draws stay sequential and
  // updates are reduced in sampling (= client-id) order — see DESIGN.md
  // §7 for the determinism argument.
  runtime::ThreadPool* pool = nullptr;
  // Simulated transport between clients and server (not owned; nullptr or
  // a disabled config bypasses it entirely — the pre-transport code path,
  // element-exact). When enabled, computed updates cross a faulty network
  // with retries, deadlines and over-provisioned sampling; see DESIGN.md
  // §8 and net/network_model.h.
  net::NetworkModel* net = nullptr;
  // Update codec the server OFFERS on each link when the transport is
  // enabled (DESIGN.md §15); each client masks the offer against its
  // codec_capabilities() and the negotiated codec encodes that link's
  // payload. Identity (the default) keeps the wire format byte-identical
  // to the pre-codec layer. Ignored while the transport is disabled —
  // updates never cross the wire there.
  net::CodecConfig codec;
  // Round engine selection (DESIGN.md §11). `sync` reproduces the
  // pre-engine behavior bit-exactly; `buffered_async` runs the
  // event-driven scheduler with the knobs in `async`.
  RoundEngineKind engine = RoundEngineKind::sync;
  AsyncConfig async;
};

// Why an update was quarantined instead of aggregated.
enum class RejectReason { non_finite, dim_mismatch, norm_exceeded };

const char* reject_reason_name(RejectReason reason);

// Why a sampled client contributed nothing to the round. Every dropped
// client is counted exactly ONCE under exactly one reason, whichever
// layer dropped it:
//  - compute:   the FaultModel dropped it before any update existed
//               (fl/faults.h dropout — the client never reports);
//  - transport: every send attempt was lost/corrupted in flight
//               (retry budget exhausted);
//  - deadline:  the update existed but reached the server after the
//               round deadline (or its backoff schedule passed it) —
//               sync engine only; buffered_async has no round deadline;
//  - excess:    it arrived intact and on time, but after the target
//               cohort had already filled (over-provisioned sampling) —
//               sync engine only;
//  - stale_discarded: it arrived, but older than the async engine's
//               staleness cutoff (AsyncConfig::max_staleness) —
//               buffered_async only.
enum class DropReason { compute, transport, deadline, excess, stale_discarded };

const char* drop_reason_name(DropReason reason);

struct RoundTelemetry {
  std::size_t round = 0;
  // Ids of the clients whose updates were ACCEPTED into the aggregate.
  // Clients that were sampled but dropped out or were quarantined appear
  // in dropped_ids / rejected_ids instead, so the three vectors below
  // stay parallel and every retained update is well-formed.
  std::vector<std::size_t> sampled_ids;
  // The accepted updates of the round (pseudo-gradients), in admission
  // order (sync: sampling order; async: virtual arrival order); staleness
  // weights already damped.
  std::vector<ClientUpdate> updates;
  // Flags parallel to `updates`.
  std::vector<bool> compromised;
  // The aggregated pseudo-gradient actually applied (zeros when the round
  // was skipped).
  tensor::FlatVec aggregated;

  // Fault accounting (fl/faults.h + the transport layer). The invariant
  // cohort_size == sampled_ids.size() + dropped_ids.size() +
  // rejected_ids.size() holds every round: each client lands in exactly
  // one bucket. Under the sync engine, cohort_size is the sampled cohort
  // (over-provisioned extras included) and every fate resolves within the
  // round. Under buffered_async a sampled client's fate may resolve in a
  // LATER cycle (its update is still in flight); cohort_size counts the
  // fates RESOLVED this cycle, so the invariant holds per cycle and
  // n_dispatched below carries the launch count.
  std::vector<std::size_t> dropped_ids;
  // Parallel to dropped_ids: which layer dropped the client.
  std::vector<DropReason> drop_reasons;
  std::vector<std::size_t> rejected_ids;
  // Parallel to rejected_ids.
  std::vector<RejectReason> reject_reasons;
  // Sync: size of the sampled cohort, over-provisioned extras included.
  // Async: number of client fates resolved this cycle (see above).
  std::size_t cohort_size = 0;
  // Message-level transport counters and arrival-time quantiles for the
  // round (all zero when the transport layer is disabled).
  net::TransportStats transport;
  // Count of accepted updates that arrived stale (weight-damped).
  std::size_t n_stragglers = 0;
  // True when no update was aggregated and the global model was left
  // untouched this round/cycle.
  bool aggregate_skipped = false;

  // Buffered-async accounting (zero / empty under the sync engine except
  // n_dispatched, which sync sets to the sampled cohort size):
  // clients sampled and launched this cycle.
  std::size_t n_dispatched = 0;
  // Updates still in flight in the buffer after this cycle's aggregation.
  std::size_t n_buffered = 0;
  // The engine's virtual clock after the cycle, in virtual ms.
  double virtual_now_ms = 0.0;
  // Per-aggregation staleness histogram: staleness_hist[s] counts the
  // admitted updates that were exactly s rounds stale (compute lag +
  // buffer lag). Sync rounds leave it empty.
  std::vector<std::size_t> staleness_hist;

  // Wall-clock of the whole round and of the client-training dispatch
  // alone (the part the thread pool parallelizes), in milliseconds.
  // Timing is observability, not state: it is not checkpointed and never
  // feeds back into the protocol.
  double wall_ms = 0.0;
  double train_ms = 0.0;
  // Wall-clock of the server-side aggregation call alone (the defense hot
  // path bench_defense_throughput measures); 0 when the round was skipped
  // before aggregating.
  double agg_ms = 0.0;
  // Clients that computed an update this round (accepted + quarantined;
  // dropouts never compute) divided by train_ms — the throughput number
  // bench_runtime_scaling sweeps.
  double clients_per_sec = 0.0;

  // Scale-out observability (DESIGN.md §12): the process's peak resident
  // set in bytes (runtime::peak_rss_bytes; 0 where /proc is unavailable)
  // and the number of clients instantiated in the population after this
  // round — equal to the population size for eager populations, the
  // distinct-participant count for lazy ones. Like the timing fields,
  // these are observability, not state: never checkpointed.
  std::size_t peak_rss_bytes = 0;
  std::size_t n_materialized = 0;

  // Infrastructure fault accounting (DESIGN.md §13): shard failures,
  // retries and failovers inside the aggregation tree, drained from the
  // aggregator right after the round's aggregate() call. All-zero when
  // no shard faults are configured.
  InfraStats infra;
};

class Server {
 public:
  Server(tensor::FlatVec initial_params, std::unique_ptr<Aggregator> agg,
         ServerConfig config, stats::Rng rng);
  ~Server();

  // Execute one round (sync) or one buffered-async cycle by delegating to
  // the configured round engine — see fl/round_engine.h for the exact
  // semantics of each mode. Common guarantees, either mode:
  //  - sampling draws stay sequential in client order, so the sampling
  //    stream is part of the checkpointable state and independent of the
  //    thread pool;
  //  - the sampled cohort's local training is dispatched on config.pool
  //    (embarrassingly parallel: clients own their RNG streams and
  //    scratch models) and results are collected by sampling index, so
  //    the aggregate — and every checkpoint derived from it — is
  //    bit-identical for any thread count;
  //  - every incoming update is validated (dimension, finiteness,
  //    optional norm ceiling); failures are quarantined into the
  //    telemetry, never thrown — one bad client cannot kill a multi-hour
  //    run. When nothing is aggregated the round is skipped with
  //    telemetry.
  RoundTelemetry run_round(const std::vector<Client*>& clients);

  // Same round semantics against any client population — lazy ones
  // materialize exactly the clients the round samples. The pointer-vector
  // overload above is a thin adapter over this one.
  RoundTelemetry run_round(ClientPopulation& population);

  const tensor::FlatVec& global_params() const { return params_; }
  void set_global_params(tensor::FlatVec p) { params_ = std::move(p); }
  std::size_t round() const { return round_; }
  const Aggregator& aggregator() const { return *agg_; }
  const ServerConfig& config() const { return config_; }

  // Checkpoint support: global params, round counter, sampling RNG, the
  // aggregator's state (noise RNGs), then the engine's private state, in
  // that order. The sync engine serializes nothing, so sync-mode blobs
  // are byte-identical with the pre-engine format; buffered_async
  // serializes its virtual clock and the in-flight buffer, so a
  // checkpoint can land MID-BUFFER and resume bit-exactly.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  friend class RoundEngine;  // engines reach server state via the base class

  tensor::FlatVec params_;
  std::unique_ptr<Aggregator> agg_;
  ServerConfig config_;
  stats::Rng rng_;
  std::size_t round_ = 0;
  std::unique_ptr<RoundEngine> engine_;
};

}  // namespace collapois::fl
