#include "nn/model.h"

#include <stdexcept>

namespace collapois::nn {

Model::Model(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {}

Model::Model(const Model& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

void Model::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  layers_.push_back(std::move(layer));
}

Tensor Model::forward(Tensor input) {
  for (auto& l : layers_) input = l->forward(std::move(input));
  return input;
}

Tensor Model::backward(Tensor grad_output) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad_output = (*it)->backward(std::move(grad_output));
  }
  return grad_output;
}

void Model::backward_params_only(Tensor grad_output) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if (std::next(it) == layers_.rend()) {
      (*it)->backward_params_only(std::move(grad_output));
      return;
    }
    grad_output = (*it)->backward(std::move(grad_output));
  }
}

void Model::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

void Model::init(stats::Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

std::size_t Model::num_parameters() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    n += const_cast<Layer&>(*l).parameters().size();
  }
  return n;
}

tensor::FlatVec Model::get_parameters() const {
  tensor::FlatVec flat;
  flat.reserve(num_parameters());
  for (const auto& l : layers_) {
    auto p = const_cast<Layer&>(*l).parameters();
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

void Model::set_parameters(std::span<const float> flat) {
  if (flat.size() != num_parameters()) {
    throw std::invalid_argument("Model::set_parameters: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& l : layers_) {
    auto p = l->parameters();
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = flat[offset + i];
    offset += p.size();
  }
}

tensor::FlatVec Model::get_gradients() const {
  tensor::FlatVec flat;
  flat.reserve(num_parameters());
  for (const auto& l : layers_) {
    auto g = const_cast<Layer&>(*l).gradients();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

std::string Model::signature() const {
  std::string s;
  for (const auto& l : layers_) {
    if (!s.empty()) s += ';';
    s += l->signature();
  }
  return s;
}

void Model::sgd_step(double lr, double weight_decay) {
  for (auto& l : layers_) {
    auto p = l->parameters();
    auto g = l->gradients();
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double step = g[i] + weight_decay * p[i];
      p[i] = static_cast<float>(p[i] - lr * step);
    }
  }
}

}  // namespace collapois::nn
