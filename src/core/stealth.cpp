#include "core/stealth.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/scratch.h"
#include "stats/geometry.h"
#include "stats/summary.h"

namespace collapois::core {

std::vector<tensor::FlatVec> sample_background_gradients(
    const std::vector<const data::Dataset*>& clean_datasets,
    const nn::Model& architecture, std::span<const float> global,
    const nn::SgdConfig& sgd, stats::Rng& rng) {
  if (clean_datasets.empty()) {
    throw std::invalid_argument("sample_background_gradients: no datasets");
  }
  std::vector<tensor::FlatVec> out;
  out.reserve(clean_datasets.size());
  nn::ScratchModel scratch{nn::Architecture(architecture)};
  for (const data::Dataset* d : clean_datasets) {
    if (d == nullptr || d->empty()) continue;
    scratch->set_parameters(global);
    nn::train_sgd(*scratch, *d, sgd, rng);
    out.push_back(tensor::sub(global, scratch->get_parameters()));
  }
  if (out.empty()) {
    throw std::invalid_argument(
        "sample_background_gradients: all datasets empty");
  }
  return out;
}

BlendReport measure_blend(const std::vector<tensor::FlatVec>& background,
                          const std::vector<tensor::FlatVec>& malicious) {
  if (background.empty() || malicious.empty()) {
    throw std::invalid_argument("measure_blend: empty input");
  }
  const tensor::FlatVec center = tensor::mean_of(background);

  const auto benign_angles = stats::angles_to_reference(background, center);
  const auto mal_angles = stats::angles_to_reference(malicious, center);

  BlendReport r;
  r.benign_angle_mean = stats::mean(benign_angles);
  r.benign_angle_var = stats::variance(benign_angles);
  r.malicious_angle_mean = stats::mean(mal_angles);
  r.malicious_angle_var = stats::variance(mal_angles);

  std::vector<double> bn;
  bn.reserve(background.size());
  for (const auto& g : background) bn.push_back(stats::l2_norm(g));
  std::vector<double> mn;
  mn.reserve(malicious.size());
  for (const auto& g : malicious) mn.push_back(stats::l2_norm(g));
  r.benign_norm_mean = stats::mean(bn);
  r.malicious_norm_mean = stats::mean(mn);
  return r;
}

StealthChoice tune_stealth(
    const std::vector<tensor::FlatVec>& background,
    std::span<const float> global, std::span<const float> x,
    const std::vector<std::pair<double, double>>& candidate_ranges,
    std::size_t samples_per_range, stats::Rng& rng) {
  if (candidate_ranges.empty() || samples_per_range == 0) {
    throw std::invalid_argument("tune_stealth: empty search space");
  }
  // Magnitude envelope of the background: clip bound A set at its mean
  // norm so malicious magnitudes sit inside the benign range.
  std::vector<double> norms;
  norms.reserve(background.size());
  for (const auto& g : background) norms.push_back(stats::l2_norm(g));
  const double clip = stats::mean(norms);

  const tensor::FlatVec direction = tensor::sub(global, x);

  StealthChoice best;
  best.objective = std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : candidate_ranges) {
    if (!(a > 0.0 && a < b && b <= 1.0)) continue;
    std::vector<tensor::FlatVec> malicious;
    malicious.reserve(samples_per_range);
    for (std::size_t i = 0; i < samples_per_range; ++i) {
      tensor::FlatVec g = direction;
      tensor::scale_inplace(g, rng.uniform(a, b));
      if (clip > 0.0) tensor::clip_l2_inplace(g, clip);
      malicious.push_back(std::move(g));
    }
    const BlendReport rep = measure_blend(background, malicious);
    const double objective =
        std::fabs(rep.malicious_angle_mean - rep.benign_angle_mean) +
        std::fabs(rep.malicious_angle_var - rep.benign_angle_var);
    if (objective < best.objective) {
      best.objective = objective;
      best.report = rep;
      best.config.psi_a = a;
      best.config.psi_b = b;
      best.config.clip = clip;
    }
  }
  if (!std::isfinite(best.objective)) {
    throw std::invalid_argument("tune_stealth: no valid psi range");
  }
  return best;
}

}  // namespace collapois::core
