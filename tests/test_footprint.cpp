// Heap cost of one materialized client. A lazy population of thousands of
// clients holds, per client, its data split and its client object; the
// model a client trains is borrowed per call (nn/scratch.h), so it must
// not show up in the per-client slope.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "agg/lazy_federation.h"
#include "data/synthetic_text.h"
#include "fl/client.h"
#include "nn/zoo.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COLLAPOIS_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define COLLAPOIS_SANITIZED_HEAP 1
#endif
#endif

namespace collapois {
namespace {

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
std::size_t heap_in_use() { return mallinfo2().uordblks; }
#define COLLAPOIS_HAVE_MALLINFO2 1
#endif

// Built the way run_experiment builds a lazy Sentiment population: a
// Dirichlet split factory (80 samples of 32 floats per client), one
// BenignClient per materialized split, one update each.
TEST(ClientFootprint, LazySentimentClientCostsAtMost12KiB) {
#if defined(COLLAPOIS_SANITIZED_HEAP)
  GTEST_SKIP() << "a sanitizer's allocator pads every block";
#elif !defined(COLLAPOIS_HAVE_MALLINFO2)
  GTEST_SKIP() << "mallinfo2 needs glibc >= 2.33";
#else
  constexpr std::size_t kClients = 1000;
  data::SyntheticTextGenerator gen({}, 71);
  agg::LazyFederation lazy(
      kClients + 1, gen.num_classes(),
      agg::make_dirichlet_split_factory(gen, 72, 80, 0.1));
  nn::Model arch = nn::make_mlp_head({});
  stats::Rng init(73);
  arch.init(init);
  const tensor::FlatVec global = arch.get_parameters();
  const nn::SgdConfig sgd;

  std::vector<std::unique_ptr<fl::Client>> clients;
  clients.reserve(kClients + 1);
  auto materialize = [&](std::size_t i) {
    clients.push_back(std::make_unique<fl::BenignClient>(
        i, &lazy.client_data(i).train, arch, sgd, 0.5, stats::Rng(i)));
    clients.back()->compute_update(fl::RoundContext{0, global});
  };
  // The first client warms this thread's scratch model and the interned
  // prototype; the slope is measured past it.
  materialize(0);
  const std::size_t before = heap_in_use();
  for (std::size_t i = 1; i <= kClients; ++i) materialize(i);
  const std::size_t after = heap_in_use();

  const double per_client =
      static_cast<double>(after - before) / static_cast<double>(kClients);
  RecordProperty("bytes_per_client", static_cast<int>(per_client));
  EXPECT_LE(per_client, 12.0 * 1024.0);
#endif
}

}  // namespace
}  // namespace collapois
