// Borrowed scratch models.
//
// A simulated client trains from the broadcast model each round, so its
// working copy of the network carries nothing from one call to the next:
// set_parameters overwrites every parameter, the training loops zero_grad
// before each batch, and each forward rewrites the activations its
// backward reads. Clients therefore hold only an Architecture handle and
// borrow a model of that layout from the calling thread for the span of
// one compute_update / eval_params. Which model a call borrows cannot
// change its result, and a population costs one model per thread instead
// of one per client.
#pragma once

#include <memory>

#include "nn/model.h"

namespace collapois::nn {

// Handle to the process-wide prototype of a model's layout (its
// signature: layer kinds and shapes; parameter values are not part of
// it). Every model with the same layout interns to the same prototype,
// which lives until exit, so a handle stays valid even when the model it
// was made from was a temporary.
class Architecture {
 public:
  explicit Architecture(const Model& model);

  const Model& prototype() const { return *prototype_; }

 private:
  const Model* prototype_;
};

// A model of `arch`'s layout borrowed from the calling thread's cache and
// handed back on destruction. Its parameters, gradients and caches are
// whatever the last borrower left: call set_parameters first. Leases of
// one layout nest (an inner lease on the same thread gets another model),
// and leases on different threads never share a model.
class ScratchModel {
 public:
  explicit ScratchModel(const Architecture& arch);
  ~ScratchModel();
  ScratchModel(const ScratchModel&) = delete;
  ScratchModel& operator=(const ScratchModel&) = delete;

  Model& operator*() const { return *model_; }
  Model* operator->() const { return model_.get(); }

 private:
  const Model* prototype_;
  std::unique_ptr<Model> model_;
};

}  // namespace collapois::nn
