#include "trojan/poison.h"

#include <algorithm>
#include <stdexcept>

namespace collapois::trojan {

data::Dataset apply_trigger_all(const data::Dataset& d, const Trigger& trigger,
                                int target_label) {
  if (target_label < 0 ||
      static_cast<std::size_t>(target_label) >= d.num_classes()) {
    throw std::invalid_argument("apply_trigger_all: target label out of range");
  }
  data::Dataset out(d.num_classes(), d.sample_shape());
  out.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out.add_row(trigger.apply(d.example(i).x).data(), target_label);
  }
  return out;
}

data::Dataset mix_poison(const data::Dataset& clean, const Trigger& trigger,
                         int target_label, double poison_fraction,
                         stats::Rng& rng) {
  if (poison_fraction < 0.0 || poison_fraction > 1.0) {
    throw std::invalid_argument("mix_poison: fraction must be in [0, 1]");
  }
  const std::size_t n_poison = static_cast<std::size_t>(
      poison_fraction * static_cast<double>(clean.size()));
  if (n_poison == 0) return clean;
  data::Dataset out(clean.num_classes(), clean.sample_shape());
  out.reserve(clean.size() + n_poison);
  out.append(clean);
  const auto picks = rng.sample_without_replacement(clean.size(), n_poison);
  for (std::size_t i : picks) {
    out.add_row(trigger.apply(clean.example(i).x).data(), target_label);
  }
  return out;
}

}  // namespace collapois::trojan
