// Client roles in the federated protocol.
//
// A Client serves two protocols:
//  - server-mediated rounds (FedAvg, FedDC): compute_update() maps the
//    broadcast global model to a pseudo-gradient;
//  - cyclic knowledge distillation (MetaFed): distill_round() refreshes the
//    client's personal model given the predecessor's (teacher) model.
//
// Attack clients (attacks/, core/) override these to inject malicious
// behaviour; is_compromised() lets the telemetry and metrics layers
// separate the populations — the simulator's server never reads it.
//
// Concurrency contract (runtime/thread_pool.h): the round loop calls
// compute_update() on DISTINCT clients concurrently, and the evaluation
// sweep does the same with eval_params(). Implementations may therefore
// mutate only state owned by this client instance (its RNG stream, its
// drift variables, its personal or poisoned data) plus the model they
// borrow for the call: clients own no model, they lease one of their
// architecture from the calling thread (nn/scratch.h), and nothing of it
// survives the call. Anything shared across clients — the broadcast
// ctx.global span, the training Dataset, a trigger, the shared Trojaned
// model X — must be treated as read-only for the duration of the call.
// State shared intentionally (the FaultModel's stale-model cache, the
// interned architecture prototypes) synchronizes internally. No client is
// ever called concurrently with itself.
#pragma once

#include <cstdint>
#include <memory>

#include "data/dataset.h"
#include "fl/state.h"
#include "net/codec.h"
#include "fl/update.h"
#include "nn/model.h"
#include "nn/scratch.h"
#include "nn/sgd.h"
#include "stats/rng.h"

namespace collapois::fl {

class Client {
 public:
  virtual ~Client() = default;

  virtual std::size_t id() const = 0;
  virtual bool is_compromised() const { return false; }

  // Update-codec capability bitmask (net/codec.h) for the per-link
  // handshake: the server offers its configured codec and this client
  // masks it against what it speaks; identity is always in the mask (it
  // is the raw wire format). Override to model constrained devices.
  virtual std::uint32_t codec_capabilities() const {
    return net::codec_capability_all();
  }

  // Server-mediated round: produce the pseudo-gradient for theta^t.
  virtual ClientUpdate compute_update(const RoundContext& ctx) = 0;

  // Parameters of the model this client actually serves predictions with
  // (the personalized model theta_i for PFL algorithms; the global model
  // otherwise). PFL clients personalize from the *current* global model,
  // so this may train — hence non-const.
  virtual tensor::FlatVec eval_params(std::span<const float> global) {
    return tensor::FlatVec(global.begin(), global.end());
  }

  // MetaFed-style round: update `personal` using `teacher` as the source
  // of common knowledge.
  virtual void distill_round(nn::Model& personal, nn::Model& teacher) = 0;

  // Checkpoint support: serialize exactly the state that evolves across
  // rounds (local RNG streams, drift variables). Borrowed scratch models,
  // reset from the broadcast globals each call, are NOT state. Writer and
  // reader must mirror each other field-for-field.
  virtual void save_state(StateWriter& /*w*/) const {}
  virtual void load_state(StateReader& /*r*/) {}
};

// A legitimate participant: K local epochs of mini-batch SGD from the
// broadcast model (Algorithm 1, lines 7-10). `architecture` only names
// the layout the client trains (it is interned, never referenced).
class BenignClient : public Client {
 public:
  BenignClient(std::size_t id, const data::Dataset* train,
               const nn::Model& architecture, nn::SgdConfig sgd,
               double distill_weight, stats::Rng rng);

  std::size_t id() const override { return id_; }
  ClientUpdate compute_update(const RoundContext& ctx) override;
  void distill_round(nn::Model& personal, nn::Model& teacher) override;
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 protected:
  // Per-instance mutable state (the RNG stream) is safe to touch from
  // compute_update()/eval_params() under the concurrency contract above;
  // the dataset is shared and stays const. Training borrows an
  // nn::ScratchModel of architecture().
  const data::Dataset& train_data() const { return *train_; }
  const nn::Architecture& architecture() const { return arch_; }
  const nn::SgdConfig& sgd_config() const { return sgd_; }
  stats::Rng& rng() { return rng_; }

 private:
  std::size_t id_;
  const data::Dataset* train_;
  nn::Architecture arch_;
  nn::SgdConfig sgd_;
  double distill_weight_;
  stats::Rng rng_;
};

// FedDC participant: local drift decoupling and correction (Gao et al.,
// CVPR'22). The client keeps a drift variable h_i and a personal model
// theta_i; local training pulls theta_i toward (theta^t - h_i) and the
// update transmitted to the server is corrected by the accumulated drift,
// so the aggregate tracks mean(theta_i + h_i).
class FedDcClient : public BenignClient {
 public:
  FedDcClient(std::size_t id, const data::Dataset* train,
              const nn::Model& architecture, nn::SgdConfig sgd,
              double drift_penalty, double distill_weight, stats::Rng rng);

  ClientUpdate compute_update(const RoundContext& ctx) override;

  // Personalize from the current global model: one drift-corrected local
  // pass (the standard PFL evaluation protocol — a client's serving model
  // is derived from the latest global, not a stale snapshot).
  tensor::FlatVec eval_params(std::span<const float> global) override;

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  double drift_penalty_;
  tensor::FlatVec drift_;  // h_i
};

}  // namespace collapois::fl
