#include "attacks/dba.h"

#include <stdexcept>

#include "trojan/poison.h"

namespace collapois::attacks {

std::unique_ptr<fl::Client> make_dba_client(
    std::size_t id, const data::Dataset& clean_train,
    const std::vector<trojan::PatchTrigger>& parts, std::size_t part_index,
    const DbaConfig& config, const nn::Model& architecture,
    nn::SgdConfig sgd, double distill_weight, stats::Rng rng) {
  if (parts.empty()) throw std::invalid_argument("make_dba_client: no parts");
  const auto& part = parts[part_index % parts.size()];
  data::Dataset poisoned = trojan::mix_poison(
      clean_train, part, config.target_label, config.poison_fraction, rng);
  return std::make_unique<PoisonTrainingClient>(
      id, std::move(poisoned), architecture, sgd, distill_weight,
      std::move(rng));
}

}  // namespace collapois::attacks
