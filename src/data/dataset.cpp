#include "data/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace collapois::data {

namespace {

std::size_t volume(const std::vector<std::size_t>& shape) {
  std::size_t v = 1;
  for (std::size_t d : shape) v *= d;
  return v;
}

}  // namespace

Dataset::Dataset(std::size_t num_classes,
                 std::vector<std::size_t> sample_shape)
    : num_classes_(num_classes),
      shape_(std::move(sample_shape)),
      row_size_(volume(shape_)) {}

void Dataset::adopt_shape(const std::vector<std::size_t>& shape) {
  if (shape_.empty()) {
    shape_ = shape;
    row_size_ = volume(shape_);
  } else if (shape != shape_) {
    throw std::invalid_argument("Dataset: example shape mismatch");
  }
}

std::span<const float> Dataset::row(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::row: index out of range");
  return std::span<const float>(features_).subspan(i * row_size_, row_size_);
}

Example Dataset::example(std::size_t i) const {
  const auto x = row(i);
  return Example{Tensor(shape_, std::vector<float>(x.begin(), x.end())),
                 labels_[i]};
}

void Dataset::add(const Example& e) {
  adopt_shape(e.x.shape());
  add_row(e.x.data(), e.label);
}

void Dataset::add_row(std::span<const float> x, int label) {
  if (shape_.empty() || x.size() != row_size_) {
    throw std::invalid_argument("Dataset::add_row: row size mismatch");
  }
  features_.insert(features_.end(), x.begin(), x.end());
  labels_.push_back(label);
}

std::span<float> Dataset::emplace_row(int label) {
  if (shape_.empty()) {
    throw std::logic_error("Dataset::emplace_row: no sample shape");
  }
  features_.resize(features_.size() + row_size_, 0.0f);
  labels_.push_back(label);
  return std::span<float>(features_).last(row_size_);
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(n * row_size_);
  labels_.reserve(n);
}

void Dataset::append(const Dataset& other) {
  if (num_classes_ == 0) num_classes_ = other.num_classes_;
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("Dataset::append: class count mismatch");
  }
  if (other.empty()) return;
  adopt_shape(other.shape_);
  features_.insert(features_.end(), other.features_.begin(),
                   other.features_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(num_classes_, shape_);
  out.reserve(indices.size());
  for (std::size_t i : indices) out.add_row(row(i), labels_[i]);
  return out;
}

std::vector<double> Dataset::label_histogram() const {
  std::vector<double> hist(num_classes_, 0.0);
  for (int label : labels_) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::logic_error("Dataset: label out of range");
    }
    hist[static_cast<std::size_t>(label)] += 1.0;
  }
  return hist;
}

std::vector<double> Dataset::cumulative_label_distribution() const {
  std::vector<double> cl = label_histogram();
  for (std::size_t j = 1; j < cl.size(); ++j) cl[j] += cl[j - 1];
  return cl;
}

ClientSplit split_client_data(const Dataset& d, stats::Rng& rng,
                              double train_frac, double test_frac) {
  if (train_frac <= 0.0 || test_frac < 0.0 || train_frac + test_frac > 1.0) {
    throw std::invalid_argument("split_client_data: bad fractions");
  }
  std::vector<std::size_t> idx(d.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);

  const std::size_t n = d.size();
  std::size_t n_train = static_cast<std::size_t>(
      static_cast<double>(n) * train_frac);
  std::size_t n_test =
      static_cast<std::size_t>(static_cast<double>(n) * test_frac);
  if (n > 0 && n_train == 0) n_train = 1;
  if (n_train + n_test > n) n_test = n - n_train;

  ClientSplit s;
  s.train = d.subset(std::span<const std::size_t>(idx.data(), n_train));
  s.test = d.subset(
      std::span<const std::size_t>(idx.data() + n_train, n_test));
  s.validation = d.subset(std::span<const std::size_t>(
      idx.data() + n_train + n_test, n - n_train - n_test));
  return s;
}

Batch make_batch(const Dataset& d, std::span<const std::size_t> indices) {
  if (indices.empty()) throw std::invalid_argument("make_batch: empty batch");
  std::vector<std::size_t> shape;
  shape.reserve(d.sample_shape().size() + 1);
  shape.push_back(indices.size());
  shape.insert(shape.end(), d.sample_shape().begin(), d.sample_shape().end());

  std::vector<float> x;
  x.reserve(indices.size() * d.row_size());
  Batch batch;
  batch.labels.reserve(indices.size());
  for (std::size_t i : indices) {
    const auto r = d.row(i);
    x.insert(x.end(), r.begin(), r.end());
    batch.labels.push_back(d.label(i));
  }
  batch.x = Tensor(std::move(shape), std::move(x));
  return batch;
}

}  // namespace collapois::data
