// Dataset containers and label-distribution utilities.
//
// A Dataset is one feature block: a fixed per-example shape, every
// example's features as one contiguous row-major block of floats, and one
// label per row, with a fixed class count. Training batches copy rows
// straight out of the block; cold paths (poisoning, STRIP, tests) read a
// row view or materialize an Example. Client-side splits (70/15/15
// train/test/val, Section V) and the cumulative label distribution of
// Eq. 9 live here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "tensor/tensor.h"

namespace collapois::data {

using tensor::Tensor;

// One example as a standalone tensor of the dataset's sample shape.
struct Example {
  Tensor x;
  int label = 0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t num_classes) : num_classes_(num_classes) {}
  Dataset(std::size_t num_classes, std::vector<std::size_t> sample_shape);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_classes() const { return num_classes_; }

  // Shape of one example (empty until the shape is set or the first
  // example is added) and its volume, the floats per row.
  const std::vector<std::size_t>& sample_shape() const { return shape_; }
  std::size_t row_size() const { return row_size_; }

  // Features of example i (a view into the block) and its label; checked.
  std::span<const float> row(std::size_t i) const;
  int label(std::size_t i) const { return labels_.at(i); }

  // Example i copied out as a tensor of the sample shape.
  Example example(std::size_t i) const;

  // Append one example. The first example of a shapeless dataset fixes the
  // sample shape; later ones must match it.
  void add(const Example& e);
  void add_row(std::span<const float> x, int label);

  // Append a zeroed row labeled `label` and return it for in-place
  // filling (the synthetic generators). The view is valid until the next
  // append. Requires the sample shape.
  std::span<float> emplace_row(int label);

  void reserve(std::size_t n);

  // Append every example of `other` (class counts and shapes must agree).
  void append(const Dataset& other);

  // Dataset restricted to the given indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  // Count of examples per label, length num_classes().
  std::vector<double> label_histogram() const;

  // Cumulative label distribution P_CL (Eq. 9): prefix sums of the label
  // histogram, i.e. N_j = sum_{q <= j} N_q.
  std::vector<double> cumulative_label_distribution() const;

 private:
  void adopt_shape(const std::vector<std::size_t>& shape);

  std::size_t num_classes_ = 0;
  std::vector<std::size_t> shape_;
  std::size_t row_size_ = 0;
  std::vector<float> features_;  // size() * row_size() floats, row-major
  std::vector<int> labels_;
};

// 70/15/15 train/test/validation split of one client's local data
// (shuffled with the provided rng). Small datasets degrade gracefully:
// every example lands in exactly one split and train is never empty when
// the input is non-empty.
struct ClientSplit {
  Dataset train;
  Dataset test;
  Dataset validation;
};

ClientSplit split_client_data(const Dataset& d, stats::Rng& rng,
                              double train_frac = 0.70,
                              double test_frac = 0.15);

// Assemble a mini-batch: stacks the rows at `indices` into one tensor of
// shape [batch, sample_shape...], plus the label vector.
struct Batch {
  Tensor x;
  std::vector<int> labels;
};

Batch make_batch(const Dataset& d, std::span<const std::size_t> indices);

}  // namespace collapois::data
