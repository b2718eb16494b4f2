// The CollaPois compromised client (Algorithm 1 lines 12-13, Eq. 4).
//
// Every compromised client shares the same pre-trained Trojaned model X
// and, whenever sampled, transmits
//
//     g_c = psi_c^t * (theta^t - X),    psi_c^t ~ U[a, b],
//
// i.e. a pull of the global model toward X (see fl/update.h for the sign
// convention). Because all compromised clients point at the same X their
// updates are tightly aligned (Fig. 3a) while benign updates scatter with
// non-IID data — the asymmetry Theorem 1 turns into a lower bound on |C|.
//
// Stealth controls (Section IV-D):
//  - the dynamic rate psi keeps the update direction private to the
//    client, blocking the server from solving for X;
//  - an optional shared clip bound A keeps magnitudes inside the benign
//    envelope;
//  - an optional tau-upscaling keeps ||g_c|| >= tau near convergence so
//    the server's estimation error of X stays bounded away from zero
//    (Theorem 3, Fig. 7).
#pragma once

#include "fl/client.h"

namespace collapois::core {

struct CollaPoisConfig {
  // Support of the dynamic learning rate psi ~ U[a, b], 0 < a < b <= 1.
  double psi_a = 0.9;
  double psi_b = 1.0;
  // Shared L2 clip bound A on the transmitted update (0 disables).
  double clip = 0.0;
  // Minimum L2 norm tau of the transmitted update (0 disables).
  double tau = 0.0;

  // Section IV-D blending controls. Both use the client's own clean-data
  // gradient (computed through the dormant behaviour, which every
  // compromised client has) as the "background sample":
  //  - blend_fraction gamma in [0, 1): transmit
  //        (1 - gamma) * psi (theta - X) + gamma * g_clean,
  //    folding the malicious pull into a benign-looking update so its
  //    *angle* statistics sit inside the benign population;
  //  - mimic_benign_norm: rescale the transmitted update to ||g_clean||,
  //    so its *magnitude* is drawn from the benign norm distribution.
  // Stealth trades off pull strength (see `bench_claims ablation`).
  double blend_fraction = 0.0;
  bool mimic_benign_norm = false;
};

class CollaPoisClient : public fl::Client {
 public:
  // Construct with the Trojaned model X, or with an empty vector for a
  // *dormant* client: until set_trojaned_model() is called the client
  // behaves exactly like `dormant_behavior` (a benign trainer on the
  // compromised client's own data), which is how the attacker waits
  // through warmup rounds while training X from the observed global model.
  CollaPoisClient(std::size_t id, tensor::FlatVec trojaned_model,
                  CollaPoisConfig config, stats::Rng rng,
                  std::unique_ptr<fl::Client> dormant_behavior = nullptr);

  std::size_t id() const override { return id_; }
  bool is_compromised() const override { return true; }
  fl::ClientUpdate compute_update(const fl::RoundContext& ctx) override;
  void distill_round(nn::Model& personal, nn::Model& teacher) override;
  // X itself is checkpointed once at the experiment level (it is shared
  // by every compromised client); per-client state is the psi stream and
  // the dormant behaviour's state.
  void save_state(fl::StateWriter& w) const override;
  void load_state(fl::StateReader& r) override;

  // Arm (or re-point) the attack at a Trojaned model.
  void set_trojaned_model(tensor::FlatVec x);
  bool armed() const { return !x_.empty(); }

  const tensor::FlatVec& trojaned_model() const { return x_; }
  const CollaPoisConfig& config() const { return config_; }

  // The psi drawn for the most recent update (telemetry/tests).
  double last_psi() const { return last_psi_; }

 private:
  std::size_t id_;
  tensor::FlatVec x_;
  CollaPoisConfig config_;
  stats::Rng rng_;
  std::unique_ptr<fl::Client> dormant_;
  double last_psi_ = 0.0;
};

}  // namespace collapois::core
