// Experiment configuration: one struct describing a complete federated
// poisoning experiment (dataset, federation, algorithm, attack, defense,
// evaluation cadence). Every bench and example builds one of these and
// hands it to run_experiment().
#pragma once

#include <cstdint>
#include <string>

#include "agg/shard_faults.h"
#include "attacks/dba.h"
#include "attacks/dpois.h"
#include "attacks/mrepl.h"
#include "core/collapois_client.h"
#include "core/trojan_trainer.h"
#include "defense/defense_kernels.h"
#include "defense/registry.h"
#include "fl/faults.h"
#include "fl/server.h"
#include "kernels/kernels.h"
#include "net/network_model.h"
#include "nn/sgd.h"

namespace collapois::sim {

enum class DatasetKind {
  femnist_like,    // synthetic image task (FEMNIST substitute)
  sentiment_like,  // synthetic embedding task (Sentiment140 substitute)
};

enum class AlgorithmKind { fedavg, feddc, metafed };

enum class AttackKind { none, collapois, dpois, mrepl, dba };

const char* dataset_name(DatasetKind kind);
const char* algorithm_name(AlgorithmKind kind);
const char* attack_name(AttackKind kind);
DatasetKind parse_dataset(const std::string& name);
AlgorithmKind parse_algorithm(const std::string& name);
AttackKind parse_attack(const std::string& name);

struct ExperimentConfig {
  DatasetKind dataset = DatasetKind::femnist_like;
  AlgorithmKind algorithm = AlgorithmKind::fedavg;
  AttackKind attack = AttackKind::collapois;
  defense::DefenseKind defense = defense::DefenseKind::none;
  defense::DefenseParams defense_params;

  // Federation (paper: 3,400-5,600 clients; simulator defaults are sized
  // for a 1-core box — COLLAPOIS_SCALE in the benches scales them up).
  std::size_t n_clients = 100;
  std::size_t samples_per_client = 80;
  double alpha = 1.0;              // Dirichlet concentration
  double compromised_fraction = 0.05;
  double sample_prob = 0.05;       // q
  std::size_t rounds = 200;
  double server_lr = 1.0;          // lambda

  // The attacker's auxiliary set D_a. The threat model (Section IV-A)
  // defines D_a as the union of the compromised clients' local datasets;
  // Section V's implementation pools only their validation splits. At
  // simulator scale the validation pool of a 1%-compromised federation is
  // a handful of samples, so the default follows the threat model and
  // pools the full local data (set true to match Section V literally).
  bool aux_validation_only = false;

  // Local training (Algorithm 1 lines 7-10).
  nn::SgdConfig local_sgd{.learning_rate = 0.05,
                          .batch_size = 16,
                          .epochs = 1,
                          .weight_decay = 0.0,
                          .grad_clip = 0.0};
  double feddc_penalty = 0.1;
  double metafed_distill_weight = 0.5;

  // Attack parameters. The evaluation reads target_label and the attacks
  // read trojan_train/dpois/dba.target_label; run_experiment refuses a
  // config where the copies differ.
  int target_label = 0;
  // Round at which the attacker strikes. The X-based attacks (CollaPois,
  // MRepl) wait through `attack_start_round` warmup rounds, then train the
  // Trojaned model X warm-started from the observed global model theta^t
  // (compromised clients receive it) — attacking near convergence keeps X
  // inside the model's low-loss valley, which is what lets the pull
  // succeed without wrecking clean accuracy (Theorem 2's regime, and the
  // standard strike timing for replacement attacks [9]). While dormant,
  // compromised clients behave benignly on their own data. Data-poisoning
  // attacks (DPois, DBA) ignore this and poison from round 0.
  std::size_t attack_start_round = 20;
  core::CollaPoisConfig collapois;  // psi ~ U[0.9, 1] by default
  attacks::DPoisConfig dpois;
  attacks::MReplConfig mrepl{.boost = 0.0, .clip = 0.0};  // boost 0 = auto q*N
  attacks::DbaConfig dba;
  core::TrojanTrainConfig trojan_train;

  // Client fault injection (fl/faults.h): dropout / stragglers /
  // corrupted updates under production conditions. Server-mediated
  // algorithms only (MetaFed has no update channel to fault).
  fl::FaultConfig faults;
  // Simulated client->server transport (src/net/): message loss and
  // corruption, retry/backoff, round deadlines, over-provisioned
  // sampling. Disabled by default — when disabled the round loop is the
  // exact pre-transport code path. Server-mediated algorithms only
  // (MetaFed has no update channel to simulate a network on).
  net::NetConfig net;
  // Update codec the server offers on each transport link (net/codec.h,
  // DESIGN.md §15): identity (the default, bit-exact), fp16, int8, or
  // topk. Lossy codecs require the transport to be enabled — without a
  // wire there is nothing to compress. The codec config is part of the
  // checkpoint fingerprint (codec_fingerprint): quantization noise
  // shapes the trajectory, so cross-codec resume fails loudly.
  net::CodecConfig codec;
  // Server-side quarantine ceiling on the L2 norm of incoming updates
  // (0 disables; malformed updates are always quarantined).
  double update_norm_ceiling = 0.0;
  // Round engine (fl/round_engine.h): `sync` is the barrier loop the
  // paper evaluates (the exact pre-engine code path); `buffered_async`
  // admits updates as they arrive on the virtual clock and aggregates
  // every async.k admissions or every async.t_ms virtual-ms with
  // staleness-damped weights. Server-mediated algorithms only (MetaFed
  // has no server round loop to schedule).
  fl::RoundEngineKind round_engine = fl::RoundEngineKind::sync;
  fl::AsyncConfig async;

  // Cross-device scale-out (src/agg/, DESIGN.md §12).
  //
  // Shard count for the aggregation tree: the server partitions each
  // round's cohort across this many shard aggregators and combines the
  // results at the root. 1 = the flat path, byte-for-byte. Results are
  // bit-identical to flat for every defense that declares a sharding
  // capability (FedAvg and the coordinate-wise rules); the pairwise-
  // distance rules (Krum, Multi-Krum, FLARE) need the whole cohort and
  // fail loudly for shards > 1. Server-mediated algorithms only.
  std::size_t shards = 1;
  // Infrastructure fault injection inside the aggregation tree
  // (agg/shard_faults.h): shard crash / timeout / corrupt-partial faults
  // with bounded retry and bit-exact failover (DESIGN.md §13). Requires
  // shards > 1 — there is no tree to fault otherwise.
  agg::ShardFaultConfig shard_faults;
  // Materialize clients (and their synthetic local data) on first
  // sample instead of at startup, so memory follows the number of
  // distinct participants rather than the registered population. Lazy
  // runs are their own deterministic universe (per-client derived data
  // seeds — see agg/lazy_federation.h) and require eval_max_clients > 0
  // (evaluating all of a 10^6-client population would re-materialize
  // it). Server-mediated algorithms only.
  bool lazy_clients = false;

  // Evaluation.
  std::size_t eval_every = 0;        // 0 = final round only
  std::size_t eval_max_clients = 0;  // 0 = all (final eval is always all)

  // Worker threads for the parallel runtime (round-loop client dispatch
  // and the evaluation sweep; src/runtime/). 0 = auto (clamped
  // hardware_concurrency), 1 = sequential. Results are bit-identical for
  // any value — the thread count is deliberately EXCLUDED from the
  // checkpoint fingerprint, so a run checkpointed at one thread count can
  // resume at another.
  std::size_t threads = 0;

  // Compute-kernel set for the tensor math (src/kernels/): `blocked`
  // (im2col + packed GEMM, the default) or `naive` (reference loops that
  // tests and benches compare against; no CLI flag selects it). The two
  // sets differ in float rounding, so — unlike `threads` — the kernel
  // kind IS part of the checkpoint fingerprint; a checkpoint written
  // under one set cannot resume under the other.
  kernels::KernelKind kernels = kernels::KernelKind::blocked;

  // Defense-kernel set for the robust-aggregation hot loops
  // (src/defense/defense_kernels.h): `fast` (GEMM-based pairwise
  // distances + tiled coordinate rules, the default) or `naive` (the
  // sequential reference loops, a test oracle like the naive kernels).
  // The coordinate-wise rules are bit-identical across sets, but the
  // distance-based ones (Krum, FLARE) round differently, so the impl is
  // part of the checkpoint fingerprint like `kernels`.
  defense::DefenseImpl defense_impl = defense::DefenseImpl::fast;

  std::uint64_t seed = 42;
};

}  // namespace collapois::sim
