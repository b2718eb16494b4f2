// Sequential model container. The federated layer of the library treats a
// model as a flat parameter vector in R^m (get_parameters /
// set_parameters); the training layer treats it as a differentiable
// function (forward / backward / SGD step).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "stats/rng.h"
#include "tensor/vecops.h"

namespace collapois::nn {

class Model {
 public:
  Model() = default;

  // Takes ownership of the layers in order.
  explicit Model(std::vector<std::unique_ptr<Layer>> layers);

  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  void add(std::unique_ptr<Layer> layer);

  // Forward through all layers. Takes the batch by value and moves it
  // through the stack — callers holding an lvalue pay exactly one copy at
  // the call site; rvalue callers pay none.
  Tensor forward(Tensor input);

  // Backward through all layers (after a forward); accumulates parameter
  // gradients and returns dL/d(input) — input gradients drive trigger
  // reverse-engineering (Neural Cleanse) and adversarial probing.
  Tensor backward(Tensor grad_output);

  // Backward that discards dL/d(input): the first layer runs its
  // params-only pass (the input-gradient GEMM / col2im is skipped).
  // Parameter gradients are bit-identical to backward() — this is what
  // the SGD training loops use.
  void backward_params_only(Tensor grad_output);

  void zero_grad();

  // He/Glorot init of every layer from the given stream.
  void init(stats::Rng& rng);

  std::size_t num_parameters() const;

  // Copy all parameters into / out of a single flat vector. This is the
  // representation exchanged between server and clients.
  tensor::FlatVec get_parameters() const;
  void set_parameters(std::span<const float> flat);

  // Flat gradient vector (concatenation in layer order).
  tensor::FlatVec get_gradients() const;

  // p -= lr * g for every parameter, with optional L2 weight decay.
  void sgd_step(double lr, double weight_decay = 0.0);

  // Layer signatures in order, ';'-joined: the model's layout.
  std::string signature() const;

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace collapois::nn
