// A compromised client that *trains* on a dataset it owns (typically a
// poisoned one). This is the shared machinery of the DPois and DBA
// baselines: unlike CollaPois, these attacks derive their malicious
// gradients from local SGD on trojaned data, so their updates inherit the
// scatter of the local data distribution (Fig. 3b).
#pragma once

#include "data/dataset.h"
#include "fl/client.h"

namespace collapois::attacks {

class PoisonTrainingClient : public fl::Client {
 public:
  PoisonTrainingClient(std::size_t id, data::Dataset training_data,
                       const nn::Model& architecture, nn::SgdConfig sgd,
                       double distill_weight, stats::Rng rng);

  std::size_t id() const override { return id_; }
  bool is_compromised() const override { return true; }
  fl::ClientUpdate compute_update(const fl::RoundContext& ctx) override;
  void distill_round(nn::Model& personal, nn::Model& teacher) override;
  void save_state(fl::StateWriter& w) const override { w.write_rng(rng_); }
  void load_state(fl::StateReader& r) override { r.read_rng(rng_); }

 private:
  std::size_t id_;
  data::Dataset data_;
  nn::Architecture arch_;
  nn::SgdConfig sgd_;
  double distill_weight_;
  stats::Rng rng_;
};

}  // namespace collapois::attacks
