#include "agg/shard_faults.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace collapois::agg {

namespace {

std::uint64_t splitmix64_once(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Counter-based uniform in [0, 1) for the (seed, shard, round, attempt)
// cell. Unlike the client plane there is a single lane: the kind is
// resolved from the same draw's position inside the stacked probability
// edges, and retries are separated by hashing the attempt index in.
double cell_uniform(std::uint64_t seed, std::size_t shard, std::size_t round,
                    std::size_t attempt) {
  std::uint64_t h = splitmix64_once(seed);
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(shard));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(round));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* shard_fault_kind_name(ShardFaultKind kind) {
  switch (kind) {
    case ShardFaultKind::none: return "none";
    case ShardFaultKind::crash: return "crash";
    case ShardFaultKind::timeout: return "timeout";
    case ShardFaultKind::corrupt: return "corrupt";
  }
  return "unknown";
}

bool ShardFaultConfig::any() const {
  return crash_prob > 0.0 || timeout_prob > 0.0 || corrupt_prob > 0.0 ||
         !pinned.empty();
}

void validate(const ShardFaultConfig& config) {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0 || !std::isfinite(p)) {
      throw std::invalid_argument(std::string("ShardFaultConfig: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_prob(config.crash_prob, "crash_prob");
  check_prob(config.timeout_prob, "timeout_prob");
  check_prob(config.corrupt_prob, "corrupt_prob");
  if (config.crash_prob + config.timeout_prob + config.corrupt_prob > 1.0) {
    throw std::invalid_argument(
        "ShardFaultConfig: fault probabilities must sum to at most 1");
  }
  if (!std::isfinite(config.backoff_base_ms) || config.backoff_base_ms < 0.0 ||
      !std::isfinite(config.backoff_cap_ms) || config.backoff_cap_ms < 0.0) {
    throw std::invalid_argument(
        "ShardFaultConfig: backoff parameters must be finite and >= 0");
  }
}

ShardFaultModel::ShardFaultModel(ShardFaultConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

ShardFaultKind ShardFaultModel::decide(std::size_t shard, std::size_t round,
                                       std::size_t attempt) const {
  const auto pinned = config_.pinned.find(shard);
  if (pinned != config_.pinned.end()) return pinned->second;

  const double u = cell_uniform(config_.seed, shard, round, attempt);
  double edge = config_.crash_prob;
  if (u < edge) return ShardFaultKind::crash;
  edge += config_.timeout_prob;
  if (u < edge) return ShardFaultKind::timeout;
  edge += config_.corrupt_prob;
  if (u < edge) return ShardFaultKind::corrupt;
  return ShardFaultKind::none;
}

double ShardFaultModel::backoff_ms(std::size_t attempt) const {
  const double exp =
      config_.backoff_base_ms * std::pow(2.0, static_cast<double>(attempt - 1));
  return std::min(exp, config_.backoff_cap_ms);
}

}  // namespace collapois::agg
