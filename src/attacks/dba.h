// DBA baseline [8]: distributed backdoor attack. The global trigger is
// split into sub-patterns; compromised client k trains with only its
// assigned part, while Attack SR is evaluated with the assembled global
// trigger.
#pragma once

#include <memory>
#include <vector>

#include "attacks/poison_training_client.h"
#include "trojan/patch_trigger.h"

namespace collapois::attacks {

struct DbaConfig {
  int target_label = 0;
  double poison_fraction = 0.5;
};

// Build a DBA compromised client; `part_index` selects which sub-trigger
// of `parts` this client embeds (round-robin assignment by the caller).
std::unique_ptr<fl::Client> make_dba_client(
    std::size_t id, const data::Dataset& clean_train,
    const std::vector<trojan::PatchTrigger>& parts, std::size_t part_index,
    const DbaConfig& config, const nn::Model& architecture,
    nn::SgdConfig sgd, double distill_weight, stats::Rng rng);

}  // namespace collapois::attacks
