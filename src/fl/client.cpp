#include "fl/client.h"

#include <stdexcept>

namespace collapois::fl {

BenignClient::BenignClient(std::size_t id, const data::Dataset* train,
                           const nn::Model& architecture, nn::SgdConfig sgd,
                           double distill_weight, stats::Rng rng)
    : id_(id),
      train_(train),
      arch_(architecture),
      sgd_(sgd),
      distill_weight_(distill_weight),
      rng_(rng) {
  if (train_ == nullptr || train_->empty()) {
    throw std::invalid_argument("BenignClient: empty training data");
  }
}

ClientUpdate BenignClient::compute_update(const RoundContext& ctx) {
  nn::ScratchModel model(arch_);
  model->set_parameters(ctx.global);
  nn::train_sgd(*model, *train_, sgd_, rng_);
  ClientUpdate u;
  u.client_id = id_;
  u.delta = tensor::sub(ctx.global, model->get_parameters());
  u.weight = 1.0;
  return u;
}

void BenignClient::save_state(StateWriter& w) const { w.write_rng(rng_); }

void BenignClient::load_state(StateReader& r) { r.read_rng(rng_); }

void BenignClient::distill_round(nn::Model& personal, nn::Model& teacher) {
  // MetaFed's cyclic knowledge transfer: the common knowledge arrives
  // through the teacher's *parameters* (the student warm-starts from
  // them), and personalization is preserved by distilling toward the
  // client's previous personal model while fine-tuning on local data.
  nn::Model previous = personal;
  personal.set_parameters(teacher.get_parameters());
  nn::train_sgd_distill(personal, previous, distill_weight_, *train_, sgd_,
                        rng_);
}

FedDcClient::FedDcClient(std::size_t id, const data::Dataset* train,
                         const nn::Model& architecture, nn::SgdConfig sgd,
                         double drift_penalty, double distill_weight,
                         stats::Rng rng)
    : BenignClient(id, train, architecture, sgd, distill_weight,
                   std::move(rng)),
      drift_penalty_(drift_penalty) {}

ClientUpdate FedDcClient::compute_update(const RoundContext& ctx) {
  if (drift_.empty()) drift_ = tensor::zeros(ctx.global.size());
  if (drift_.size() != ctx.global.size()) {
    throw std::invalid_argument("FedDcClient: model size changed");
  }

  // Local drift-corrected objective: pull theta_i toward theta^t - h_i.
  tensor::FlatVec anchor(ctx.global.begin(), ctx.global.end());
  tensor::axpy_inplace(anchor, -1.0, drift_);

  nn::ScratchModel model(architecture());
  model->set_parameters(ctx.global);
  nn::train_sgd_proximal(*model, anchor, drift_penalty_, train_data(),
                         sgd_config(), rng());
  const tensor::FlatVec personal = model->get_parameters();

  // Drift correction with damping: h_i <- (1-m) h_i + m (theta_i -
  // theta^t). Plain accumulation makes h_i grow without bound when the
  // proximal penalty is mild (local optima stay offset from the global
  // model every round); the exponential average keeps h_i at the scale of
  // the true local drift, which is FedDC's intent.
  constexpr double kDriftMomentum = 0.5;
  tensor::FlatVec local_shift = tensor::sub(personal, ctx.global);
  tensor::scale_inplace(drift_, 1.0 - kDriftMomentum);
  tensor::axpy_inplace(drift_, kDriftMomentum, local_shift);

  // Transmit the drift-corrected update so the server tracks
  // mean(theta_i + h_i): g = theta^t - (theta_i + h_i).
  ClientUpdate u;
  u.client_id = id();
  tensor::FlatVec corrected = personal;
  tensor::axpy_inplace(corrected, 1.0, drift_);
  u.delta = tensor::sub(ctx.global, corrected);
  u.weight = 1.0;
  return u;
}

void FedDcClient::save_state(StateWriter& w) const {
  BenignClient::save_state(w);
  w.write_floats(drift_);
}

void FedDcClient::load_state(StateReader& r) {
  BenignClient::load_state(r);
  drift_ = r.read_floats();
}

tensor::FlatVec FedDcClient::eval_params(std::span<const float> global) {
  nn::ScratchModel model(architecture());
  model->set_parameters(global);
  if (drift_.empty()) drift_ = tensor::zeros(global.size());
  tensor::FlatVec anchor(global.begin(), global.end());
  tensor::axpy_inplace(anchor, -1.0, drift_);
  nn::train_sgd_proximal(*model, anchor, drift_penalty_, train_data(),
                         sgd_config(), rng());
  return model->get_parameters();
}

}  // namespace collapois::fl
