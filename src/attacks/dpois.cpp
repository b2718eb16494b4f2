#include "attacks/dpois.h"

#include "trojan/poison.h"

namespace collapois::attacks {

std::unique_ptr<fl::Client> make_dpois_client(
    std::size_t id, const data::Dataset& clean_train,
    const trojan::Trigger& trigger, const DPoisConfig& config,
    const nn::Model& architecture, nn::SgdConfig sgd, double distill_weight,
    stats::Rng rng) {
  data::Dataset poisoned = trojan::mix_poison(
      clean_train, trigger, config.target_label, config.poison_fraction, rng);
  return std::make_unique<PoisonTrainingClient>(
      id, std::move(poisoned), architecture, sgd, distill_weight,
      std::move(rng));
}

}  // namespace collapois::attacks
