#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "kernels/kernels.h"

namespace collapois::nn {

void Layer::zero_grad() {
  auto g = gradients();
  std::fill(g.begin(), g.end(), 0.0f);
}

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      params_(in_features * out_features + out_features, 0.0f),
      grads_(params_.size(), 0.0f) {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
}

void Dense::init(stats::Rng& rng) {
  // He initialization for the ReLU nets used throughout.
  const double s = std::sqrt(2.0 / static_cast<double>(in_));
  for (std::size_t i = 0; i < in_ * out_; ++i) {
    params_[i] = static_cast<float>(rng.normal(0.0, s));
  }
  for (std::size_t i = in_ * out_; i < params_.size(); ++i) params_[i] = 0.0f;
}

Tensor Dense::forward(Tensor input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [B, in]");
  }
  cached_input_ = std::move(input);
  const std::size_t batch = cached_input_.dim(0);
  Tensor out({batch, out_});
  // y[b, o] = sum_i x[b, i] * W[o, i] + b[o]; bias rides the GEMM's store
  // epilogue (out starts zeroed, so += is =).
  kernels::ops().gemm_a_bt_accum(cached_input_.data().data(), params_.data(),
                                 out.data().data(), batch, in_, out_,
                                 params_.data() + in_ * out_, nullptr);
  return out;
}

Tensor Dense::backward(Tensor grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: expected [B, out]");
  }
  const std::size_t batch = grad_output.dim(0);
  // dW[o, i] += sum_b g[b, o] * x[b, i] (A^T B with A = g, B = x); the
  // bias gradient (column sums of g) is fused into the same pass.
  kernels::ops().gemm_at_b_accum(grad_output.data().data(),
                                 cached_input_.data().data(), grads_.data(),
                                 batch, out_, in_,
                                 grads_.data() + in_ * out_);
  // dX[b, i] = sum_o g[b, o] * W[o, i]
  Tensor grad_in({batch, in_});
  kernels::ops().gemm(grad_output.data().data(), params_.data(),
                      grad_in.data().data(), batch, out_, in_, nullptr);
  return grad_in;
}

Tensor Dense::backward_params_only(Tensor grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: expected [B, out]");
  }
  const std::size_t batch = grad_output.dim(0);
  kernels::ops().gemm_at_b_accum(grad_output.data().data(),
                                 cached_input_.data().data(), grads_.data(),
                                 batch, out_, in_,
                                 grads_.data() + in_ * out_);
  return {};
}

std::unique_ptr<Layer> Dense::clone() const {
  auto c = std::make_unique<Dense>(in_, out_);
  c->params_ = params_;
  return c;
}

// ----------------------------------------------------------------- Relu

Tensor Relu::forward(Tensor input) {
  const std::size_t n = input.size();
  mask_size_ = n;
  active_mask_.resize((n + 63) / 64);
  // Clamp in place and pack the activity bits in one SIMD pass; every
  // mask word is fully written, so no pre-zeroing of the mask either.
  kernels::relu_forward_mask(input.data().data(), n, active_mask_.data());
  return input;
}

Tensor Relu::backward(Tensor grad_output) {
  if (grad_output.size() != mask_size_) {
    throw std::invalid_argument("Relu::backward: size mismatch");
  }
  kernels::relu_backward_mask(grad_output.data().data(), mask_size_,
                              active_mask_.data());
  return grad_output;
}

std::unique_ptr<Layer> Relu::clone() const { return std::make_unique<Relu>(); }

// --------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      pad_(padding),
      params_(out_channels * in_channels * kernel * kernel + out_channels,
              0.0f),
      grads_(params_.size(), 0.0f),
      id_(kernels::new_conv_layer_id()) {
  if (cin_ == 0 || cout_ == 0 || k_ == 0) {
    throw std::invalid_argument("Conv2d: zero-sized layer");
  }
}

void Conv2d::init(stats::Rng& rng) {
  const double fan_in = static_cast<double>(cin_ * k_ * k_);
  const double s = std::sqrt(2.0 / fan_in);
  const std::size_t nw = cout_ * cin_ * k_ * k_;
  for (std::size_t i = 0; i < nw; ++i) {
    params_[i] = static_cast<float>(rng.normal(0.0, s));
  }
  for (std::size_t i = nw; i < params_.size(); ++i) params_[i] = 0.0f;
}

Tensor Conv2d::forward(Tensor input) {
  const auto& s = input.shape();
  if (s.size() != 4 || s[1] != cin_) {
    throw std::invalid_argument("Conv2d::forward: expected [B, Cin, H, W]");
  }
  const std::size_t h = s[2];
  const std::size_t w = s[3];
  if (h + 2 * pad_ < k_ || w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2d::forward: kernel larger than input");
  }
  cached_input_ = std::move(input);
  kernels::Conv2dShape shape{cached_input_.dim(0), cin_, h,
                             w,                    cout_, k_,
                             pad_,                 h + 2 * pad_ - k_ + 1,
                             w + 2 * pad_ - k_ + 1};
  Tensor out({shape.batch, cout_, shape.oh, shape.ow});
  kernels::ops().conv2d_forward(shape, cached_input_.data().data(),
                                params_.data(),
                                params_.data() + cout_ * cin_ * k_ * k_,
                                out.data().data(), {id_, ++forwards_});
  return out;
}

Tensor Conv2d::backward(Tensor grad_output) {
  return backward_impl(std::move(grad_output), /*need_input_grad=*/true);
}

Tensor Conv2d::backward_params_only(Tensor grad_output) {
  return backward_impl(std::move(grad_output), /*need_input_grad=*/false);
}

Tensor Conv2d::backward_impl(Tensor grad_output, bool need_input_grad) {
  const auto& gs = grad_output.shape();
  const auto& is = cached_input_.shape();
  if (gs.size() != 4 || gs[1] != cout_) {
    throw std::invalid_argument("Conv2d::backward: expected [B, Cout, OH, OW]");
  }
  kernels::Conv2dShape shape{is[0], cin_, is[2], is[3], cout_,
                             k_,    pad_, gs[2], gs[3]};
  Tensor grad_in = need_input_grad ? Tensor(is) : Tensor();
  kernels::ops().conv2d_backward(
      shape, cached_input_.data().data(), params_.data(),
      grad_output.data().data(), grads_.data(),
      grads_.data() + cout_ * cin_ * k_ * k_,
      need_input_grad ? grad_in.data().data() : nullptr, {id_, forwards_});
  return grad_in;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto c = std::make_unique<Conv2d>(cin_, cout_, k_, pad_);
  c->params_ = params_;
  return c;
}

// ------------------------------------------------------------ MaxPool2d

Tensor MaxPool2d::forward(Tensor input) {
  const auto& s = input.shape();
  if (s.size() != 4 || s[2] % 2 != 0 || s[3] % 2 != 0) {
    throw std::invalid_argument(
        "MaxPool2d::forward: expected [B, C, H, W] with even H, W");
  }
  in_shape_ = s;
  Tensor out({s[0], s[1], s[2] / 2, s[3] / 2});
  code_.resize(out.size());
  kernels::maxpool2x2_forward(input.data().data(), s[0] * s[1], s[2], s[3],
                              out.data().data(), code_.data());
  return out;
}

Tensor MaxPool2d::backward(Tensor grad_output) {
  if (grad_output.size() != code_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: size mismatch");
  }
  Tensor grad_in(in_shape_);
  kernels::maxpool2x2_backward(grad_output.data().data(), code_.data(),
                               in_shape_[0] * in_shape_[1], in_shape_[2],
                               in_shape_[3], grad_in.data().data());
  return grad_in;
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>();
}

// -------------------------------------------------------------- Flatten

Tensor Flatten::forward(Tensor input) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten::forward: rank >= 2 required");
  }
  in_shape_ = input.shape();
  const std::size_t batch = in_shape_[0];
  const std::size_t features = input.size() / batch;
  return std::move(input).reshaped({batch, features});
}

Tensor Flatten::backward(Tensor grad_output) {
  return std::move(grad_output).reshaped(in_shape_);
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

}  // namespace collapois::nn
