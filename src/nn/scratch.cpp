#include "nn/scratch.h"

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace collapois::nn {

namespace {

// Interned prototypes by signature. Never destroyed: thread caches and
// handles may outlive any static destructor order.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<const Model>> by_signature;
};

Registry& registry() {
  static auto* r = new Registry;
  return *r;
}

// The calling thread's idle scratch models, per prototype.
using FreeLists =
    std::vector<std::pair<const Model*, std::vector<std::unique_ptr<Model>>>>;

std::vector<std::unique_ptr<Model>>& free_list(const Model* prototype) {
  thread_local FreeLists lists;
  for (auto& [p, models] : lists) {
    if (p == prototype) return models;
  }
  return lists.emplace_back(prototype, std::vector<std::unique_ptr<Model>>{})
      .second;
}

}  // namespace

Architecture::Architecture(const Model& model) {
  std::string sig = model.signature();
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  auto& slot = r.by_signature[std::move(sig)];
  if (!slot) slot = std::make_unique<const Model>(model);
  prototype_ = slot.get();
}

ScratchModel::ScratchModel(const Architecture& arch)
    : prototype_(&arch.prototype()) {
  auto& idle = free_list(prototype_);
  if (idle.empty()) {
    model_ = std::make_unique<Model>(*prototype_);
  } else {
    model_ = std::move(idle.back());
    idle.pop_back();
  }
}

ScratchModel::~ScratchModel() {
  free_list(prototype_).push_back(std::move(model_));
}

}  // namespace collapois::nn
