// Tests for borrowed scratch models (nn/scratch.h): clients own no model,
// so an update must not depend on which scratch a call borrows, on what
// that scratch computed last, or on which thread ran it.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "defense/ditto.h"
#include "fl/client.h"
#include "nn/scratch.h"
#include "nn/zoo.h"
#include "runtime/parallel.h"

namespace collapois {
namespace {

bool same_bytes(const tensor::FlatVec& a, const tensor::FlatVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const nn::SgdConfig kSgd{.learning_rate = 0.05, .batch_size = 16, .epochs = 2};

class ScratchFixture : public ::testing::Test {
 protected:
  ScratchFixture() : rng_(31), text_({}, 32), image_({}, 33) {
    fed_ = data::build_federation(text_, 4, 60, 1.0, rng_);
    mlp_ = nn::make_mlp_head({});
    mlp_.init(rng_);
    global_ = mlp_.get_parameters();
    std::vector<std::size_t> counts(image_.num_classes(), 0);
    counts[2] = 20;
    images_ = image_.generate(counts, rng_);
    lenet_ = nn::make_lenet_small({});
    lenet_.init(rng_);
  }

  // Client `i` of one kind, each built with the same RNG seed so two
  // instances compute the same updates.
  std::unique_ptr<fl::Client> make(const std::string& kind, std::size_t i) {
    const data::Dataset* train = &fed_.clients[i].train;
    stats::Rng rng(100 + i);
    if (kind == "benign") {
      return std::make_unique<fl::BenignClient>(i, train, mlp_, kSgd, 0.5,
                                                rng);
    }
    if (kind == "feddc") {
      return std::make_unique<fl::FedDcClient>(i, train, mlp_, kSgd, 0.1,
                                               0.5, rng);
    }
    return std::make_unique<defense::DittoClient>(
        i, train, mlp_, kSgd, defense::DittoConfig{}, 0.5, rng);
  }

  // Two rounds of updates (FedDC's second round reads its drift) and a
  // personalization pass.
  std::vector<tensor::FlatVec> exercise(fl::Client& c) {
    fl::RoundContext ctx{0, global_};
    std::vector<tensor::FlatVec> out;
    out.push_back(c.compute_update(ctx).delta);
    out.push_back(c.compute_update(ctx).delta);
    out.push_back(c.eval_params(global_));
    return out;
  }

  // Dirties this thread's scratch models: another client of the same
  // layout, and a model of another architecture.
  void dirty_scratch() {
    auto other = make("benign", 3);
    fl::RoundContext ctx{0, global_};
    other->compute_update(ctx);
    fl::BenignClient conv(9, &images_, lenet_, kSgd, 0.5, stats::Rng(9));
    const tensor::FlatVec lenet_params = lenet_.get_parameters();
    conv.compute_update(fl::RoundContext{0, lenet_params});
  }

  stats::Rng rng_;
  data::SyntheticTextGenerator text_;
  data::SyntheticImageGenerator image_;
  data::FederatedData fed_;
  data::Dataset images_;
  nn::Model mlp_;
  nn::Model lenet_;
  tensor::FlatVec global_;
};

using ScratchReuse = ScratchFixture;
using RuntimeScratch = ScratchFixture;

// A fresh thread has an empty scratch cache, so its first borrow is a
// fresh copy of the prototype: the reference every reuse must match.
TEST_F(ScratchReuse, UpdatesMatchAFreshCopy) {
  for (const std::string kind : {"benign", "feddc", "ditto"}) {
    SCOPED_TRACE(kind);
    std::vector<tensor::FlatVec> fresh;
    std::thread([&] {
      auto c = make(kind, 0);
      fresh = exercise(*c);
    }).join();

    dirty_scratch();
    auto c = make(kind, 0);
    const auto reused = exercise(*c);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      EXPECT_TRUE(same_bytes(reused[k], fresh[k])) << "output " << k;
    }
  }
}

TEST(ScratchModel, ArchitectureSurvivesATemporaryModel) {
  data::SyntheticTextGenerator gen({}, 5);
  stats::Rng rng(6);
  const data::Dataset train =
      gen.generate(std::vector<std::size_t>{0, 30}, rng);
  fl::BenignClient client(0, &train, nn::make_mlp_head({}), kSgd, 0.5,
                          stats::Rng(7));
  nn::Model probe = nn::make_mlp_head({});
  probe.init(rng);
  const tensor::FlatVec global = probe.get_parameters();
  const auto u = client.compute_update(fl::RoundContext{0, global});
  EXPECT_EQ(u.delta.size(), global.size());
}

TEST(ScratchModel, OneLayoutInternsOnePrototype) {
  stats::Rng rng(8);
  nn::Model a = nn::make_mlp_head({});
  nn::Model b = nn::make_mlp_head({});
  b.init(rng);  // parameter values are not part of the layout
  const nn::Model c = nn::make_mlp_head({.hidden = 16});
  EXPECT_EQ(&nn::Architecture(a).prototype(), &nn::Architecture(b).prototype());
  EXPECT_NE(&nn::Architecture(a).prototype(), &nn::Architecture(c).prototype());
  EXPECT_NE(a.signature(), c.signature());
}

TEST(ScratchModel, NestedLeasesGetDistinctModels) {
  const nn::Architecture arch(nn::make_mlp_head({}));
  const nn::Model* outer_model = nullptr;
  const nn::Model* inner_model = nullptr;
  {
    nn::ScratchModel outer(arch);
    nn::ScratchModel inner(arch);
    outer_model = &*outer;
    inner_model = &*inner;
    EXPECT_NE(inner_model, outer_model);
  }
  // Returned models are lent again rather than copied anew.
  nn::ScratchModel again(arch);
  EXPECT_TRUE(&*again == outer_model || &*again == inner_model);
}

// Distinct clients updating concurrently through a 4-thread pool — each
// call borrowing its worker's scratch — produce the sequential bytes.
// (The Runtime suite prefix keeps it in the ThreadSanitizer job's filter.)
TEST_F(RuntimeScratch, ConcurrentUpdatesMatchSequential) {
  const std::vector<std::string> kinds = {"benign", "feddc", "ditto",
                                          "benign"};
  auto run = [&](runtime::ThreadPool* pool) {
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      clients.push_back(make(kinds[i], i));
    }
    std::vector<std::vector<tensor::FlatVec>> out(clients.size());
    for (int round = 0; round < 3; ++round) {
      runtime::parallel_for(pool, clients.size(), [&](std::size_t i) {
        const auto r = exercise(*clients[i]);
        out[i].insert(out[i].end(), r.begin(), r.end());
      });
    }
    return out;
  };
  const auto sequential = run(nullptr);
  runtime::ThreadPool pool(4);
  const auto parallel = run(&pool);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), sequential[i].size());
    for (std::size_t k = 0; k < sequential[i].size(); ++k) {
      EXPECT_TRUE(same_bytes(parallel[i][k], sequential[i][k]))
          << "client " << i << " output " << k;
    }
  }
}

}  // namespace
}  // namespace collapois
