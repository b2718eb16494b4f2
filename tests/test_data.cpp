// Tests for the data substrate: synthetic generators, splits, label
// statistics, and the Dirichlet non-IID partitioner (the knob the whole
// paper turns).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "stats/summary.h"

namespace collapois::data {
namespace {

TEST(Dataset, AddSubsetHistogram) {
  Dataset d(3);
  for (int label : {0, 1, 1, 2, 2, 2}) {
    Example e;
    e.x = Tensor({1});
    e.label = label;
    d.add(std::move(e));
  }
  const auto hist = d.label_histogram();
  EXPECT_EQ(hist, (std::vector<double>{1, 2, 3}));
  const std::vector<std::size_t> idx = {0, 3};
  const Dataset sub = d.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(1), 2);
}

TEST(Dataset, CumulativeLabelDistribution) {
  Dataset d(4);
  for (int label : {0, 1, 1, 3}) {
    Example e;
    e.x = Tensor({1});
    e.label = label;
    d.add(std::move(e));
  }
  EXPECT_EQ(d.cumulative_label_distribution(),
            (std::vector<double>{1, 3, 3, 4}));
}

TEST(Dataset, AppendChecksClassCount) {
  Dataset a(2);
  Dataset b(3);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  Dataset c(2);
  Example e;
  e.x = Tensor({1});
  c.add(e);
  a.append(c);
  EXPECT_EQ(a.size(), 1u);
}

TEST(Split, FractionsRespected) {
  stats::Rng rng(1);
  Dataset d(2);
  for (int i = 0; i < 100; ++i) {
    Example e;
    e.x = Tensor({1});
    e.label = i % 2;
    d.add(std::move(e));
  }
  const ClientSplit s = split_client_data(d, rng);
  EXPECT_EQ(s.train.size(), 70u);
  EXPECT_EQ(s.test.size(), 15u);
  EXPECT_EQ(s.validation.size(), 15u);
  EXPECT_EQ(s.train.size() + s.test.size() + s.validation.size(), d.size());
}

TEST(Split, TinyDatasetsKeepTrainNonEmpty) {
  stats::Rng rng(2);
  Dataset d(2);
  Example e;
  e.x = Tensor({1});
  d.add(e);
  const ClientSplit s = split_client_data(d, rng);
  EXPECT_EQ(s.train.size(), 1u);
  EXPECT_EQ(s.test.size() + s.validation.size(), 0u);
}

TEST(Split, RejectsBadFractions) {
  stats::Rng rng(3);
  Dataset d(2);
  EXPECT_THROW(split_client_data(d, rng, 0.8, 0.3), std::invalid_argument);
  EXPECT_THROW(split_client_data(d, rng, 0.0, 0.1), std::invalid_argument);
}

TEST(Batch, StacksExamples) {
  Dataset d(2);
  for (int i = 0; i < 3; ++i) {
    Example e;
    e.x = Tensor({2}, {static_cast<float>(i), static_cast<float>(-i)});
    e.label = i % 2;
    d.add(std::move(e));
  }
  const std::vector<std::size_t> idx = {2, 0};
  const Batch b = make_batch(d, idx);
  EXPECT_EQ(b.x.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(b.x[0], 2.0f);
  EXPECT_EQ(b.labels, (std::vector<int>{0, 0}));
  EXPECT_THROW(make_batch(d, std::vector<std::size_t>{}),
               std::invalid_argument);
}

// ---- feature-block layout vs the per-example assembly it replaced -----

// One Example per sample, drawn in generate()'s order: the layout the
// contiguous feature block replaced.
std::vector<Example> per_example(const SyntheticImageGenerator& gen,
                                 const std::vector<std::size_t>& counts,
                                 stats::Rng& rng) {
  std::vector<Example> out;
  for (std::size_t cls = 0; cls < counts.size(); ++cls) {
    for (std::size_t i = 0; i < counts[cls]; ++i) {
      out.push_back(gen.sample(static_cast<int>(cls), rng));
    }
  }
  return out;
}

void expect_rows_equal(const Dataset& d,
                       const std::vector<const Example*>& ref) {
  ASSERT_EQ(d.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto row = d.row(i);
    ASSERT_EQ(row.size(), ref[i]->x.size());
    EXPECT_EQ(0, std::memcmp(row.data(), ref[i]->x.data().data(),
                             row.size() * sizeof(float)))
        << "row " << i;
    EXPECT_EQ(d.label(i), ref[i]->label) << "row " << i;
  }
}

class DatasetBlock : public ::testing::Test {
 protected:
  DatasetBlock() : gen_({}, 41), counts_({3, 0, 5, 1, 0, 0, 7, 0, 2, 4}) {
    stats::Rng a(42);
    stats::Rng b(42);
    block_ = gen_.generate(counts_, a);
    examples_ = per_example(gen_, counts_, b);
    rng_state_matches_ = a.next_u64() == b.next_u64();
  }

  std::vector<const Example*> refs(const std::vector<std::size_t>& idx) const {
    std::vector<const Example*> out;
    for (std::size_t i : idx) out.push_back(&examples_[i]);
    return out;
  }

  SyntheticImageGenerator gen_;
  std::vector<std::size_t> counts_;
  Dataset block_;
  std::vector<Example> examples_;
  bool rng_state_matches_ = false;
};

TEST_F(DatasetBlock, GenerateWritesTheSampledRowsInPlace) {
  EXPECT_TRUE(rng_state_matches_);
  EXPECT_EQ(block_.sample_shape(), examples_[0].x.shape());
  EXPECT_EQ(block_.row_size(), examples_[0].x.size());
  std::vector<std::size_t> all(examples_.size());
  std::iota(all.begin(), all.end(), 0);
  expect_rows_equal(block_, refs(all));
  const Example e = block_.example(5);
  EXPECT_EQ(e.x.shape(), examples_[5].x.shape());
  EXPECT_EQ(e.x.storage(), examples_[5].x.storage());
  EXPECT_EQ(e.label, examples_[5].label);
}

TEST_F(DatasetBlock, SubsetAndAppendMatchPerExampleAssembly) {
  const std::vector<std::size_t> idx = {21, 0, 4, 4, 13, 8};
  const Dataset sub = block_.subset(idx);
  expect_rows_equal(sub, refs(idx));

  Dataset joined;  // shapeless: the first non-empty append fixes it
  joined.append(Dataset(block_.num_classes()));
  joined.append(sub);
  joined.append(block_.subset(std::vector<std::size_t>{1, 2}));
  expect_rows_equal(joined, refs({21, 0, 4, 4, 13, 8, 1, 2}));

  Dataset text(block_.num_classes(), {32});
  EXPECT_THROW(text.append(sub), std::invalid_argument);
  EXPECT_THROW(joined.add(Example{Tensor({2}), 0}), std::invalid_argument);
}

TEST_F(DatasetBlock, SplitMatchesPerExampleAssembly) {
  stats::Rng a(43);
  stats::Rng b(43);
  const ClientSplit split = split_client_data(block_, a);
  std::vector<std::size_t> idx(block_.size());
  std::iota(idx.begin(), idx.end(), 0);
  b.shuffle(idx);
  const std::size_t n_train = 15;  // 70% of 22
  const std::size_t n_test = 3;    // 15% of 22
  expect_rows_equal(split.train, refs({idx.begin(), idx.begin() + n_train}));
  expect_rows_equal(split.test, refs({idx.begin() + n_train,
                                      idx.begin() + n_train + n_test}));
  expect_rows_equal(split.validation,
                    refs({idx.begin() + n_train + n_test, idx.end()}));
}

TEST_F(DatasetBlock, MakeBatchMatchesStackedExamples) {
  const std::vector<std::size_t> idx = {7, 3, 19, 3};
  const Batch b = make_batch(block_, idx);
  std::vector<std::size_t> shape = {idx.size()};
  for (std::size_t dim : examples_[0].x.shape()) shape.push_back(dim);
  EXPECT_EQ(b.x.shape(), shape);
  std::vector<float> stacked;
  std::vector<int> labels;
  for (std::size_t i : idx) {
    stacked.insert(stacked.end(), examples_[i].x.data().begin(),
                   examples_[i].x.data().end());
    labels.push_back(examples_[i].label);
  }
  ASSERT_EQ(b.x.size(), stacked.size());
  EXPECT_EQ(0, std::memcmp(b.x.data().data(), stacked.data(),
                           stacked.size() * sizeof(float)));
  EXPECT_EQ(b.labels, labels);
}

TEST(ImageGenerator, ShapesAndRanges) {
  SyntheticImageConfig cfg;
  SyntheticImageGenerator gen(cfg, 99);
  stats::Rng rng(1);
  const Example e = gen.sample(3, rng);
  EXPECT_EQ(e.label, 3);
  EXPECT_EQ(e.x.shape(),
            (std::vector<std::size_t>{1, cfg.height, cfg.width}));
  for (float v : e.x.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_THROW(gen.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(gen.sample(10, rng), std::invalid_argument);
}

TEST(ImageGenerator, SameSeedSamePrototypes) {
  SyntheticImageGenerator a({}, 5);
  SyntheticImageGenerator b({}, 5);
  SyntheticImageGenerator c({}, 6);
  EXPECT_EQ(a.prototype(0).storage(), b.prototype(0).storage());
  EXPECT_NE(a.prototype(0).storage(), c.prototype(0).storage());
}

TEST(ImageGenerator, ClassesAreSeparable) {
  // Prototypes of different classes must differ substantially — otherwise
  // the task is unlearnable and every experiment downstream is noise.
  SyntheticImageGenerator gen({}, 7);
  double min_dist = 1e9;
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      double d = 0.0;
      const auto& pa = gen.prototype(a);
      const auto& pb = gen.prototype(b);
      for (std::size_t i = 0; i < pa.size(); ++i) {
        d += (pa[i] - pb[i]) * (pa[i] - pb[i]);
      }
      min_dist = std::min(min_dist, std::sqrt(d));
    }
  }
  EXPECT_GT(min_dist, 1.0);
}

TEST(ImageGenerator, GenerateCountsRespected) {
  SyntheticImageGenerator gen({}, 8);
  stats::Rng rng(2);
  std::vector<std::size_t> counts(10, 0);
  counts[2] = 5;
  counts[7] = 3;
  const Dataset d = gen.generate(counts, rng);
  EXPECT_EQ(d.size(), 8u);
  const auto hist = d.label_histogram();
  EXPECT_EQ(hist[2], 5.0);
  EXPECT_EQ(hist[7], 3.0);
}

TEST(TextGenerator, ShapesAndDeterminism) {
  SyntheticTextConfig cfg;
  SyntheticTextGenerator a(cfg, 11);
  SyntheticTextGenerator b(cfg, 11);
  EXPECT_EQ(a.class_mean(0).storage(), b.class_mean(0).storage());
  stats::Rng rng(1);
  const Example e = a.sample(1, rng);
  EXPECT_EQ(e.x.shape(), (std::vector<std::size_t>{cfg.embedding_dim}));
}

TEST(TextGenerator, ClassMeansOnSeparationSphere) {
  SyntheticTextConfig cfg;
  SyntheticTextGenerator gen(cfg, 12);
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    double norm2 = 0.0;
    for (float v : gen.class_mean(c).data()) {
      norm2 += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(std::sqrt(norm2), cfg.class_separation, 1e-4);
  }
}

TEST(DirichletCounts, SumExactlyToTotal) {
  stats::Rng rng(3);
  for (double alpha : {0.01, 0.1, 1.0, 100.0}) {
    for (std::size_t total : {1u, 7u, 80u, 1000u}) {
      const auto counts = dirichlet_class_counts(rng, alpha, 10, total);
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), total)
          << "alpha=" << alpha << " total=" << total;
    }
  }
}

// The paper's central data property: small alpha concentrates each
// client's data on few classes; large alpha spreads it evenly.
class DirichletSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(DirichletSkewSweep, EffectiveClassesMatchAlphaRegime) {
  const double alpha = GetParam();
  stats::Rng rng(4);
  double mean_nonzero = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const auto counts = dirichlet_class_counts(rng, alpha, 10, 100);
    int nonzero = 0;
    for (std::size_t c : counts) nonzero += (c > 0) ? 1 : 0;
    mean_nonzero += nonzero;
  }
  mean_nonzero /= trials;
  if (alpha <= 0.05) {
    EXPECT_LT(mean_nonzero, 3.5);
  } else if (alpha >= 50.0) {
    EXPECT_GT(mean_nonzero, 9.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletSkewSweep,
                         ::testing::Values(0.01, 0.05, 1.0, 50.0, 100.0));

TEST(PartitionDirichlet, EveryExampleAssignedOnce) {
  stats::Rng rng(5);
  SyntheticTextGenerator gen({}, 13);
  std::vector<std::size_t> counts = {200, 200};
  const Dataset d = gen.generate(counts, rng);
  const auto parts = partition_dirichlet(d, 8, 0.5, rng);
  ASSERT_EQ(parts.size(), 8u);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, d.size());
}

TEST(PartitionDirichlet, LargeAlphaBalances) {
  stats::Rng rng(6);
  SyntheticTextGenerator gen({}, 14);
  std::vector<std::size_t> counts = {400, 400};
  const Dataset d = gen.generate(counts, rng);
  const auto parts = partition_dirichlet(d, 4, 1000.0, rng);
  for (const auto& p : parts) {
    // Each client close to 200 examples, each class close to balanced.
    EXPECT_NEAR(static_cast<double>(p.size()), 200.0, 40.0);
  }
}

TEST(Federation, BuildsSplitsAndHistograms) {
  stats::Rng rng(7);
  SyntheticTextGenerator gen({}, 15);
  const FederatedData fed = build_federation(gen, 12, 40, 0.5, rng);
  EXPECT_EQ(fed.num_clients(), 12u);
  EXPECT_EQ(fed.num_classes, 2u);
  const auto hists = fed.client_label_histograms();
  ASSERT_EQ(hists.size(), 12u);
  for (const auto& h : hists) {
    EXPECT_NEAR(std::accumulate(h.begin(), h.end(), 0.0), 40.0, 1e-9);
  }
  for (const auto& c : fed.clients) {
    EXPECT_FALSE(c.train.empty());
  }
}

TEST(Federation, AlphaControlsClientSkew) {
  stats::Rng rng(8);
  SyntheticImageGenerator gen({}, 16);
  const FederatedData skewed = build_federation(gen, 20, 60, 0.01, rng);
  const FederatedData even = build_federation(gen, 20, 60, 100.0, rng);
  auto mean_max_share = [](const FederatedData& fed) {
    double total = 0.0;
    for (const auto& h : fed.client_label_histograms()) {
      const double mx = *std::max_element(h.begin(), h.end());
      const double sum = std::accumulate(h.begin(), h.end(), 0.0);
      total += mx / sum;
    }
    return total / static_cast<double>(fed.num_clients());
  };
  EXPECT_GT(mean_max_share(skewed), 0.8);
  EXPECT_LT(mean_max_share(even), 0.3);
}

}  // namespace
}  // namespace collapois::data
