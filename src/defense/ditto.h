// Ditto (Li et al., ICML'21): fair and robust FL through personalization
// — each client serves a personal model v_i trained on its private data
// with a proximal pull toward the (potentially corrupt) global model:
//
//   min_v L_i(v) + (lambda/2) ||v - theta_g||^2
//
// As a backdoor defense, the hope is that local fine-tuning walks the
// served model away from the trojaned region. DittoClient is a benign
// participant whose eval_params() solves the objective above from the
// current global model (Table I, "fine-tune the potentially corrupt
// global model on each client's private data").
#pragma once

#include "fl/client.h"

namespace collapois::defense {

struct DittoConfig {
  // Proximal coefficient lambda; smaller = more aggressive fine-tuning
  // away from the global model.
  double lambda = 0.1;
  // Local passes used for the personal solve at evaluation time.
  std::size_t personal_epochs = 1;
};

class DittoClient : public fl::BenignClient {
 public:
  DittoClient(std::size_t id, const data::Dataset* train,
              const nn::Model& architecture, nn::SgdConfig sgd,
              DittoConfig ditto, double distill_weight, stats::Rng rng);

  tensor::FlatVec eval_params(std::span<const float> global) override;

 private:
  DittoConfig ditto_;
};

}  // namespace collapois::defense
