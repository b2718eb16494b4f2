// DPois baseline [13], [14]: classical data poisoning. Each compromised
// client trains on its own local data augmented with a trojaned copy
// (D_c union D_c^Troj) and submits the resulting gradient like any other
// participant.
#pragma once

#include <memory>

#include "attacks/poison_training_client.h"
#include "trojan/trigger.h"

namespace collapois::attacks {

struct DPoisConfig {
  int target_label = 0;
  // Fraction of the local data that is duplicated in trojaned form.
  double poison_fraction = 0.5;
};

// Build a DPois compromised client from its clean local training data.
std::unique_ptr<fl::Client> make_dpois_client(
    std::size_t id, const data::Dataset& clean_train,
    const trojan::Trigger& trigger, const DPoisConfig& config,
    const nn::Model& architecture, nn::SgdConfig sgd, double distill_weight,
    stats::Rng rng);

}  // namespace collapois::attacks
