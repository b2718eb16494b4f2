#include "attacks/poison_training_client.h"

#include <stdexcept>

namespace collapois::attacks {

PoisonTrainingClient::PoisonTrainingClient(std::size_t id,
                                           data::Dataset training_data,
                                           const nn::Model& architecture,
                                           nn::SgdConfig sgd,
                                           double distill_weight,
                                           stats::Rng rng)
    : id_(id),
      data_(std::move(training_data)),
      arch_(architecture),
      sgd_(sgd),
      distill_weight_(distill_weight),
      rng_(std::move(rng)) {
  if (data_.empty()) {
    throw std::invalid_argument("PoisonTrainingClient: empty training data");
  }
}

fl::ClientUpdate PoisonTrainingClient::compute_update(
    const fl::RoundContext& ctx) {
  nn::ScratchModel model(arch_);
  model->set_parameters(ctx.global);
  nn::train_sgd(*model, data_, sgd_, rng_);
  fl::ClientUpdate u;
  u.client_id = id_;
  u.delta = tensor::sub(ctx.global, model->get_parameters());
  u.weight = 1.0;
  return u;
}

void PoisonTrainingClient::distill_round(nn::Model& personal,
                                         nn::Model& teacher) {
  // Same cyclic transfer as a benign client (warm-start from the teacher,
  // distill toward the previous personal model) but trained on the
  // poisoned local dataset.
  nn::Model previous = personal;
  personal.set_parameters(teacher.get_parameters());
  nn::train_sgd_distill(personal, previous, distill_weight_, data_, sgd_,
                        rng_);
}

}  // namespace collapois::attacks
