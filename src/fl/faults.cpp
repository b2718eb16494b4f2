#include "fl/faults.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace collapois::fl {

namespace {

std::uint64_t splitmix64_once(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Counter-based uniform in [0, 1) for the (seed, client, round, lane)
// cell; `lane` separates the fault draw from the corruption-kind draw.
double cell_uniform(std::uint64_t seed, std::size_t client_id,
                    std::size_t round, std::uint64_t lane) {
  std::uint64_t h = splitmix64_once(seed ^ (0x9e3779b97f4a7c15ULL * lane));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(client_id));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(round));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::none: return "none";
    case FaultKind::dropout: return "dropout";
    case FaultKind::straggler: return "straggler";
    case FaultKind::corrupt_nan: return "corrupt-nan";
    case FaultKind::corrupt_inf: return "corrupt-inf";
    case FaultKind::corrupt_truncate: return "corrupt-truncate";
    case FaultKind::corrupt_blowup: return "corrupt-blowup";
  }
  return "unknown";
}

bool FaultConfig::any() const {
  return dropout_prob > 0.0 || straggler_prob > 0.0 || corrupt_prob > 0.0 ||
         !pinned.empty();
}

void validate(const FaultConfig& config) {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0 || !std::isfinite(p)) {
      throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_prob(config.dropout_prob, "dropout_prob");
  check_prob(config.straggler_prob, "straggler_prob");
  check_prob(config.corrupt_prob, "corrupt_prob");
  if (config.dropout_prob + config.straggler_prob + config.corrupt_prob > 1.0) {
    throw std::invalid_argument(
        "FaultConfig: fault probabilities must sum to at most 1");
  }
}

FaultModel::FaultModel(FaultConfig config) : config_(std::move(config)) {
  validate(config_);
}

FaultKind FaultModel::decide(std::size_t client_id, std::size_t round) const {
  const auto pinned = config_.pinned.find(client_id);
  if (pinned != config_.pinned.end()) return pinned->second;

  const double u = cell_uniform(config_.seed, client_id, round, 1);
  double edge = config_.dropout_prob;
  if (u < edge) return FaultKind::dropout;
  edge += config_.straggler_prob;
  if (u < edge) return FaultKind::straggler;
  edge += config_.corrupt_prob;
  if (u < edge) {
    const double v = cell_uniform(config_.seed, client_id, round, 2);
    if (v < 0.25) return FaultKind::corrupt_nan;
    if (v < 0.50) return FaultKind::corrupt_inf;
    if (v < 0.75) return FaultKind::corrupt_truncate;
    return FaultKind::corrupt_blowup;
  }
  return FaultKind::none;
}

void FaultModel::observe_global(std::size_t round,
                                std::span<const float> global) {
  if (config_.straggler_prob <= 0.0 &&
      config_.pinned.empty()) {
    return;  // nothing will ever read the history
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (round > max_round_seen_) max_round_seen_ = round;
  // Watermark pruning (see faults.h): drop everything strictly older than
  // the deepest lookback any straggler — or any buffered in-flight update
  // — can still reach from the newest round seen. A late observation for
  // a round below the watermark is NOT recorded: it is already
  // unreachable, and inserting it would only recreate the stale entry the
  // watermark just removed.
  const std::size_t window = config_.straggler_staleness + extra_retention_;
  const std::size_t watermark =
      max_round_seen_ > window ? max_round_seen_ - window : 0;
  if (round < watermark) return;
  if (history_.count(round) == 0) {
    history_.emplace(round, tensor::FlatVec(global.begin(), global.end()));
  }
  history_.erase(history_.begin(), history_.lower_bound(watermark));
}

void FaultModel::set_extra_retention(std::size_t rounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  extra_retention_ = rounds;
}

const tensor::FlatVec& FaultModel::stale_global(
    std::size_t round, std::size_t* actual_staleness) const {
  // The returned reference outlives the lock; that is safe because the
  // entry cannot be pruned until the next round's first observe_global(),
  // which the round barrier orders after this reader (see faults.h).
  const std::lock_guard<std::mutex> lock(mu_);
  if (history_.empty()) {
    throw std::logic_error(
        "FaultModel::stale_global: no observed history (observe_global must "
        "run before the straggler path)");
  }
  const std::size_t want =
      round >= config_.straggler_staleness ? round - config_.straggler_staleness
                                           : 0;
  // The newest recorded round <= want; when the history starts later than
  // `want` (early rounds, or a cohort gap), fall back to the oldest entry.
  auto it = history_.upper_bound(want);
  if (it != history_.begin()) --it;
  if (actual_staleness != nullptr) {
    *actual_staleness = round - it->first;
  }
  return it->second;
}

void FaultModel::save_state(StateWriter& w) const {
  const std::lock_guard<std::mutex> lock(mu_);
  w.write_size(history_.size());
  for (const auto& [round, global] : history_) {
    w.write_size(round);
    w.write_floats(global);
  }
}

void FaultModel::load_state(StateReader& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  history_.clear();
  const std::size_t n = r.read_size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t round = r.read_size();
    history_.emplace(round, r.read_floats());
  }
  // The watermark is derived state: re-anchor it to the restored history
  // instead of serializing it, keeping the blob format unchanged.
  max_round_seen_ = history_.empty() ? 0 : history_.rbegin()->first;
}

FaultyClient::FaultyClient(std::unique_ptr<Client> inner,
                           std::shared_ptr<FaultModel> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {
  if (!inner_) throw std::invalid_argument("FaultyClient: null inner client");
  if (!faults_) throw std::invalid_argument("FaultyClient: null fault model");
}

ClientUpdate FaultyClient::compute_update(const RoundContext& ctx) {
  faults_->observe_global(ctx.round, ctx.global);
  const FaultKind fault = faults_->decide(inner_->id(), ctx.round);
  switch (fault) {
    case FaultKind::none:
      return inner_->compute_update(ctx);
    case FaultKind::dropout: {
      // Sampled but never reports: no local compute, no RNG consumption.
      ClientUpdate u;
      u.client_id = inner_->id();
      u.weight = 0.0;
      u.status = UpdateStatus::dropped;
      return u;
    }
    case FaultKind::straggler: {
      std::size_t staleness = 0;
      const tensor::FlatVec& stale = faults_->stale_global(ctx.round,
                                                           &staleness);
      RoundContext stale_ctx{ctx.round, stale};
      ClientUpdate u = inner_->compute_update(stale_ctx);
      u.status = UpdateStatus::straggler;
      u.staleness = staleness;
      return u;
    }
    case FaultKind::corrupt_nan:
    case FaultKind::corrupt_inf: {
      ClientUpdate u = inner_->compute_update(ctx);
      const float bad = fault == FaultKind::corrupt_nan
                            ? std::numeric_limits<float>::quiet_NaN()
                            : std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < u.delta.size(); i += 17) u.delta[i] = bad;
      if (!u.delta.empty()) u.delta[0] = bad;
      return u;
    }
    case FaultKind::corrupt_truncate: {
      ClientUpdate u = inner_->compute_update(ctx);
      u.delta.resize(u.delta.size() / 2);
      return u;
    }
    case FaultKind::corrupt_blowup: {
      ClientUpdate u = inner_->compute_update(ctx);
      tensor::scale_inplace(u.delta, 1e6);
      return u;
    }
  }
  throw std::logic_error("FaultyClient: unhandled fault kind");
}

}  // namespace collapois::fl
