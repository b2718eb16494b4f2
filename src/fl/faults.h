// Client fault injection for production-condition experiments.
//
// Shejwalkar et al. ("Back to the Drawing Board", S&P'22) argue that
// poisoning results only transfer to deployed FL when evaluated under
// production conditions: partial participation, churn, unreliable
// clients. This layer injects exactly those conditions into the
// simulator so the CollaPois / D-Pois comparison can be re-run under
// realistic client behaviour (bench_fault_tolerance):
//
//  - dropout:    the client is sampled but never reports;
//  - straggler:  the client computes its update against a k-round-stale
//                global model and delivers it late (the server damps the
//                weight by 1 / (1 + staleness));
//  - corruption: the reported update is malformed — NaN/Inf-poisoned,
//                dimension-truncated, or magnitude-blown-up — and must be
//                quarantined by the server's validation path.
//
// Determinism: fault decisions are *counter-based* — a splitmix64 hash of
// (seed, client id, round) — not drawn from a mutable RNG stream. The
// decision for (client, round) is therefore independent of the order in
// which clients are polled and of how many other faults fired, which
// keeps runs reproducible and makes checkpoint/resume trivial (only the
// straggler's stale-model cache is mutable state).
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "fl/client.h"
#include "fl/state.h"

namespace collapois::fl {

enum class FaultKind {
  none,
  dropout,
  straggler,
  corrupt_nan,       // every 17th coordinate (and [0]) set to quiet NaN
  corrupt_inf,       // same stride, +/- infinity
  corrupt_truncate,  // delta truncated to half its dimension
  corrupt_blowup,    // delta scaled by 1e6
};

const char* fault_kind_name(FaultKind kind);

struct FaultConfig {
  // Per-(client, round) probabilities, evaluated in this priority order:
  // dropout, then straggler, then corruption (a client suffers at most
  // one fault per round).
  double dropout_prob = 0.0;
  double straggler_prob = 0.0;
  double corrupt_prob = 0.0;
  // Staleness k of a straggler's model view (capped by available history).
  std::size_t straggler_staleness = 2;
  // Stream selector for the counter-based decisions; experiments with the
  // same faults but different seeds fault different (client, round) cells.
  std::uint64_t seed = 0x5eedfa017ULL;
  // Per-client forced faults (e.g. an always-NaN client); overrides the
  // stochastic draw every round.
  std::map<std::size_t, FaultKind> pinned;

  bool any() const;
};

// Each probability finite in [0, 1] and their sum at most 1; throws
// std::invalid_argument with a "FaultConfig: ..." message otherwise.
void validate(const FaultConfig& config);

// Shared fault oracle: decides the fault for each (client, round) cell
// and keeps the bounded history of broadcast global models that
// stragglers compute against. One FaultModel is shared by every
// FaultyClient wrapper of a federation.
//
// Thread safety (the round loop dispatches clients in parallel,
// runtime/thread_pool.h): decide() is a pure function; the stale-model
// cache is guarded by a mutex. Within a round every wrapper calls
// observe_global() with the SAME (round, global) before reading, and
// insertion is first-caller-wins, so cache content — and therefore every
// result — is independent of thread scheduling. References returned by
// stale_global() stay valid for the whole round: pruning only happens on
// the first observe_global() of a later round, which the round barrier
// orders after every reader.
class FaultModel {
 public:
  explicit FaultModel(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  // The fault assignment for this cell (pure function of config + seed).
  FaultKind decide(std::size_t client_id, std::size_t round) const;

  // Record the broadcast global model of `round` (first caller wins).
  // History is pruned by a virtual-clock WATERMARK, not by size: entries
  // older than max_observed_round - (straggler_staleness + extra
  // retention) are discarded. Size-based pruning is wrong under the
  // buffered-async engine, where cohorts overlap and observe_global()
  // calls arrive out of round order: a late observation from an older
  // in-flight cohort would evict a round a deeper straggler still needs
  // (or be evicted itself immediately, silently shrinking the lookback).
  // The watermark only ever moves forward, so late observations of
  // still-relevant rounds are retained and already-pruned rounds stay
  // pruned. For the monotone round sequence of the sync engine the
  // retained set is identical to the old size bound.
  void observe_global(std::size_t round, std::span<const float> global);

  // Widen the pruning window by `rounds` beyond straggler_staleness. The
  // async runner sets this to its staleness cutoff so stale-model history
  // survives as long as an update can legally sit in the buffer.
  void set_extra_retention(std::size_t rounds);

  // The stale view a straggler at `round` trains against: the recorded
  // global of round - k (or the oldest available; the current round's
  // global when no history exists yet). Sets `actual_staleness` to the
  // real lag of the returned model.
  const tensor::FlatVec& stale_global(std::size_t round,
                                      std::size_t* actual_staleness) const;

  // The stale-model cache is the FaultModel's only mutable state.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  FaultConfig config_;
  // Guards history_ against concurrent per-client dispatch (mutable so
  // the const read paths can lock).
  mutable std::mutex mu_;
  std::map<std::size_t, tensor::FlatVec> history_;  // round -> global
  // Pruning watermark inputs: the newest round ever observed (monotone;
  // re-derived from the history on load, so checkpoint blobs are
  // unchanged) and the extra retention window for overlapping cohorts.
  std::size_t max_round_seen_ = 0;
  std::size_t extra_retention_ = 0;
};

// Decorator that subjects an inner client to the shared fault model.
// Wraps benign and compromised clients alike — churn is environmental,
// not adversarial.
class FaultyClient : public Client {
 public:
  FaultyClient(std::unique_ptr<Client> inner,
               std::shared_ptr<FaultModel> faults);

  std::size_t id() const override { return inner_->id(); }
  bool is_compromised() const override { return inner_->is_compromised(); }
  ClientUpdate compute_update(const RoundContext& ctx) override;
  tensor::FlatVec eval_params(std::span<const float> global) override {
    return inner_->eval_params(global);
  }
  void distill_round(nn::Model& personal, nn::Model& teacher) override {
    inner_->distill_round(personal, teacher);
  }
  void save_state(StateWriter& w) const override { inner_->save_state(w); }
  void load_state(StateReader& r) override { inner_->load_state(r); }

  Client& inner() { return *inner_; }

 private:
  std::unique_ptr<Client> inner_;
  std::shared_ptr<FaultModel> faults_;
};

}  // namespace collapois::fl
