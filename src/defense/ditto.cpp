#include "defense/ditto.h"

namespace collapois::defense {

DittoClient::DittoClient(std::size_t id, const data::Dataset* train,
                         const nn::Model& architecture, nn::SgdConfig sgd,
                         DittoConfig ditto, double distill_weight,
                         stats::Rng rng)
    : BenignClient(id, train, architecture, sgd, distill_weight,
                   std::move(rng)),
      ditto_(ditto) {}

tensor::FlatVec DittoClient::eval_params(std::span<const float> global) {
  nn::ScratchModel model(architecture());
  model->set_parameters(global);
  nn::SgdConfig cfg = sgd_config();
  cfg.epochs = ditto_.personal_epochs;
  const tensor::FlatVec anchor(global.begin(), global.end());
  nn::train_sgd_proximal(*model, anchor, ditto_.lambda, train_data(), cfg,
                         rng());
  return model->get_parameters();
}

}  // namespace collapois::defense
