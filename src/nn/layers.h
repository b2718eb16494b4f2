// Neural-network layers with explicit forward/backward passes.
//
// Batches are rank-2 tensors [B, features] for dense paths and rank-4
// (stored with an explicit shape vector) [B, C, H, W] for the convolutional
// path of the LeNet-style local model the paper uses for FEMNIST.
//
// Each layer owns its parameters and gradients and caches whatever it needs
// from the forward pass; Model sequences layers and exposes the flat
// parameter vector that federated aggregation operates on.
//
// Activations move: forward/backward take their tensor BY VALUE so a layer
// can steal the buffer instead of copying it (Flatten and Relu are
// zero-copy pass-throughs, Dense/Conv2d adopt the input as their cached
// activation). Model::forward threads one tensor through the stack with
// std::move; callers holding an lvalue pay exactly one copy at the call
// site.
//
// The heavy math (GEMM, convolution) dispatches through the compute-kernel
// registry (src/kernels/): `blocked` im2col + packed GEMM by default, the
// `naive` reference loops as the test oracle (ExperimentConfig::kernels).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "tensor/tensor.h"

namespace collapois::nn {

using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass; caches activations needed by backward. Takes the input
  // by value — pass an rvalue to let the layer recycle the buffer.
  virtual Tensor forward(Tensor input) = 0;

  // Backward pass: consumes dL/d(output), accumulates parameter gradients,
  // returns dL/d(input).
  virtual Tensor backward(Tensor grad_output) = 0;

  // Backward for a layer whose input gradient nobody will read (the first
  // layer of a model during plain training). Parameter gradients are
  // accumulated bit-identically to backward(); the returned tensor is
  // unspecified. Layers with an expensive input-gradient computation
  // (Dense, Conv2d) override this to skip it.
  virtual Tensor backward_params_only(Tensor grad_output) {
    return backward(std::move(grad_output));
  }

  // Flat views over parameters and their gradients (empty for stateless
  // layers).
  virtual std::span<float> parameters() { return {}; }
  virtual std::span<float> gradients() { return {}; }

  virtual void zero_grad();

  // Deep copy (used to replicate architecture across simulator roles).
  virtual std::unique_ptr<Layer> clone() const = 0;

  // Kind and shape, e.g. "Dense(32,64)": two layers with equal signatures
  // are interchangeable up to their parameter values (nn/scratch.h keys
  // its per-thread models by the concatenated signatures).
  virtual std::string signature() const = 0;

  // Initialize parameters (He/Glorot-style); default no-op.
  virtual void init(stats::Rng& /*rng*/) {}

  std::size_t num_parameters() { return parameters().size(); }
};

// Fully connected layer: y = x W^T + b, x: [B, in], y: [B, out].
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  Tensor backward_params_only(Tensor grad_output) override;
  std::span<float> parameters() override { return params_; }
  std::span<float> gradients() override { return grads_; }
  std::unique_ptr<Layer> clone() const override;
  std::string signature() const override;
  void init(stats::Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  // params_ layout: [W (out*in) | b (out)].
  std::vector<float> params_;
  std::vector<float> grads_;
  Tensor cached_input_;
};

// Element-wise ReLU. The backward mask is a packed bitmask (1 bit per
// activation instead of a full float copy of the input), and the forward
// pass clamps the moved-in tensor in place — one buffer, no copies.
class Relu : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string signature() const override;

 private:
  std::vector<std::uint64_t> active_mask_;  // bit i: input[i] > 0
  std::size_t mask_size_ = 0;               // activations covered by the mask
};

// 2-D convolution, stride 1, 'valid' padding by default (pad = 0).
// Input [B, C_in, H, W] -> output [B, C_out, H-k+1+2p, W-k+1+2p].
// Forward/backward lower onto the active compute-kernel set (im2col +
// blocked GEMM with fused bias epilogues, or the naive direct loops).
// Each forward is tagged (layer id, forward count) so the backward can
// reuse the forward's column matrix (kernels::ConvTag). Copying would
// give two layers one id, so a Conv2d is only ever clone()d, which draws
// a fresh id.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t padding = 0);
  Conv2d(const Conv2d&) = delete;
  Conv2d& operator=(const Conv2d&) = delete;

  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  Tensor backward_params_only(Tensor grad_output) override;
  std::span<float> parameters() override { return params_; }
  std::span<float> gradients() override { return grads_; }
  std::unique_ptr<Layer> clone() const override;
  std::string signature() const override;
  void init(stats::Rng& rng) override;

 private:
  Tensor backward_impl(Tensor grad_output, bool need_input_grad);

  std::size_t cin_;
  std::size_t cout_;
  std::size_t k_;
  std::size_t pad_;
  // params_ layout: [W (cout*cin*k*k) | b (cout)].
  std::vector<float> params_;
  std::vector<float> grads_;
  Tensor cached_input_;
  std::uint64_t id_;           // kernels::new_conv_layer_id()
  std::uint64_t forwards_ = 0; // tag of the forward behind cached_input_
};

// 2x2 max pooling with stride 2 on [B, C, H, W] (H, W even required).
// The backward routing keeps one byte per output: the window position of
// its maximum (kernels::maxpool2x2_forward).
class MaxPool2d : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string signature() const override;

 private:
  std::vector<std::uint8_t> code_;
  std::vector<std::size_t> in_shape_;
};

// Collapses [B, ...] to [B, F]. Pure metadata rewrite on the moved-in
// tensor — no buffer traffic in either direction.
class Flatten : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string signature() const override;

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace collapois::nn
