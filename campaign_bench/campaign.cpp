#include "campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace campaign_bench {

namespace {

using collapois::sim::ExperimentConfig;
using collapois::sim::ExperimentResult;

// Splitmix64 step: independent decision-stream seeds from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.algorithm = collapois::sim::AlgorithmKind::fedavg;
  cfg.attack = collapois::sim::AttackKind::collapois;
  cfg.seed = seed;
  cfg.net.seed = mix(seed, 1);
  cfg.faults.seed = mix(seed, 2);
  return cfg;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  ExperimentConfig& cfg = w.config;
  cfg = base_config(seed);
  if (name == "femnist_strike") {
    // X-training dominates: 20 compromised clients pool D_a (1,360
    // train+validation samples) and LeNet trains on it for 40 epochs
    // after the warm-up. Sequential: the pool's per-image X-training
    // fan-out doubled campaign times whenever the host was busy, so the
    // pool is measured by hand with --threads (see README.md).
    cfg.dataset = collapois::sim::DatasetKind::femnist_like;
    cfg.defense = collapois::defense::DefenseKind::none;
    cfg.n_clients = 400;
    cfg.samples_per_client = 80;
    cfg.sample_prob = 0.05;
    cfg.compromised_fraction = 0.05;
    cfg.attack_start_round = 20;
    cfg.rounds = 60;
    cfg.threads = 1;
    w.benign_ac_tolerance = 0.02;
    w.attack_sr_tolerance = 0.05;
  } else if (name == "sentiment_crowd") {
    // Server-side cost: ~200 updates per round through Multi-Krum's
    // pairwise distances, the int8 codec and the angle telemetry. Run by
    // hand only: its round times are not steady enough for BENCHMARK.json
    // (see README.md).
    cfg.dataset = collapois::sim::DatasetKind::sentiment_like;
    cfg.defense = collapois::defense::DefenseKind::multi_krum;
    cfg.n_clients = 2000;
    cfg.sample_prob = 0.1;
    cfg.compromised_fraction = 0.05;
    cfg.attack_start_round = 10;
    cfg.rounds = 20;
    cfg.net.enabled = true;
    cfg.codec.kind = collapois::net::CodecKind::int8;
    cfg.threads = 4;
    w.benign_ac_tolerance = 0.03;
    w.attack_sr_tolerance = 0.10;
  } else if (name == "sentiment_async_durable") {
    // Lazy 20,000-client population, buffered-async engine, sharded
    // trimmed mean, client dropout and message loss, and the durable
    // checkpoint write path; sequential (no pool).
    cfg.dataset = collapois::sim::DatasetKind::sentiment_like;
    cfg.defense = collapois::defense::DefenseKind::trimmed_mean;
    cfg.n_clients = 20000;
    cfg.lazy_clients = true;
    cfg.sample_prob = 0.004;
    cfg.compromised_fraction = 0.005;
    cfg.attack_start_round = 20;
    cfg.rounds = 60;
    cfg.round_engine = collapois::fl::RoundEngineKind::buffered_async;
    cfg.async.k = 32;
    cfg.shards = 4;
    cfg.faults.dropout_prob = 0.05;
    cfg.net.enabled = true;
    cfg.net.loss_prob = 0.1;
    cfg.eval_max_clients = 256;
    cfg.threads = 1;
    w.checkpoint_every = 10;
    w.checkpoint_keep = 3;
    w.benign_ac_tolerance = 0.03;
    w.attack_sr_tolerance = 0.10;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

ExperimentConfig reference_config(const Workload& w) {
  ExperimentConfig cfg = w.config;
  cfg.threads = 1;
  cfg.defense_impl = collapois::defense::DefenseImpl::naive;
  if (cfg.dataset == collapois::sim::DatasetKind::sentiment_like) {
    cfg.kernels = collapois::kernels::KernelKind::naive;
  }
  return cfg;
}

collapois::sim::RunOptions campaign_options(
    const Workload& w, const std::string& checkpoint_path) {
  collapois::sim::RunOptions options;
  if (w.checkpoint_every > 0) {
    options.checkpoint_save_path = checkpoint_path;
    options.checkpoint_every = w.checkpoint_every;
    options.checkpoint_keep = w.checkpoint_keep;
  }
  return options;
}

std::uint64_t digest(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float v : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<std::string> check_campaign(const Workload& w,
                                        const ExperimentResult& result,
                                        const ExperimentResult& reference) {
  std::vector<std::string> failures;
  if (result.final_global.empty()) {
    failures.push_back("final model is empty");
  }
  const bool finite = std::all_of(result.final_global.begin(),
                                  result.final_global.end(),
                                  [](float v) { return std::isfinite(v); });
  if (!finite) failures.push_back("final model has a non-finite parameter");
  if (result.rounds.size() != w.config.rounds) {
    failures.push_back("ran " + std::to_string(result.rounds.size()) +
                       " rounds, configured " +
                       std::to_string(w.config.rounds));
  }
  for (const auto& r : result.rounds) {
    if (r.cohort_size != r.n_accepted + r.n_dropped + r.n_rejected) {
      failures.push_back("round " + std::to_string(r.round) +
                         " breaks cohort_size == accepted + dropped + "
                         "rejected");
    }
  }
  const auto within = [](double v, double ref, double tol) {
    return std::isfinite(v) && std::fabs(v - ref) <= tol;
  };
  if (!within(result.population.benign_ac, reference.population.benign_ac,
              w.benign_ac_tolerance)) {
    failures.push_back("benign_ac " +
                       std::to_string(result.population.benign_ac) +
                       " is outside the reference " +
                       std::to_string(reference.population.benign_ac) +
                       " +- " + std::to_string(w.benign_ac_tolerance));
  }
  if (!within(result.population.attack_sr, reference.population.attack_sr,
              w.attack_sr_tolerance)) {
    failures.push_back("attack_sr " +
                       std::to_string(result.population.attack_sr) +
                       " is outside the reference " +
                       std::to_string(reference.population.attack_sr) +
                       " +- " + std::to_string(w.attack_sr_tolerance));
  }
  return failures;
}

bool self_test() {
  // A small real campaign stands in for a measured one; it is its own
  // reference, so it must pass, and each corruption must be caught.
  Workload w;
  w.name = "self_test";
  w.config = base_config(7);
  w.config.dataset = collapois::sim::DatasetKind::sentiment_like;
  w.config.n_clients = 40;
  w.config.sample_prob = 0.25;
  w.config.rounds = 6;
  w.config.attack_start_round = 2;
  w.config.threads = 1;
  w.config.faults.dropout_prob = 0.2;
  w.benign_ac_tolerance = 0.02;
  w.attack_sr_tolerance = 0.05;
  const ExperimentResult good = collapois::sim::run_experiment(w.config);

  struct Case {
    const char* name;
    bool expect_pass;
    void (*corrupt)(ExperimentResult&);
  };
  const Case cases[] = {
      {"uncorrupted", true, [](ExperimentResult&) {}},
      {"nan_in_final_model", false,
       [](ExperimentResult& r) {
         r.final_global[r.final_global.size() / 2] =
             std::numeric_limits<float>::quiet_NaN();
       }},
      {"inf_in_final_model", false,
       [](ExperimentResult& r) {
         r.final_global[0] = std::numeric_limits<float>::infinity();
       }},
      {"broken_cohort_invariant", false,
       [](ExperimentResult& r) { r.rounds[3].n_dropped += 1; }},
      {"missing_round", false,
       [](ExperimentResult& r) { r.rounds.pop_back(); }},
      {"benign_ac_off_reference", false,
       [](ExperimentResult& r) { r.population.benign_ac -= 0.1; }},
      {"attack_sr_off_reference", false,
       [](ExperimentResult& r) { r.population.attack_sr += 0.2; }},
      {"attack_sr_nan", false,
       [](ExperimentResult& r) {
         r.population.attack_sr = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  bool all_right = true;
  for (const Case& c : cases) {
    ExperimentResult r = good;
    c.corrupt(r);
    const bool passed = check_campaign(w, r, good).empty();
    const bool right = passed == c.expect_pass;
    all_right = all_right && right;
    std::printf("self-test %-26s %s (%s)\n", c.name,
                passed ? "passes" : "caught", right ? "ok" : "WRONG");
  }
  return all_right;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double median_or_zero(std::vector<double> v) {
  return v.empty() ? 0.0 : median(std::move(v));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_percentile_rank(std::size_t n) {
  if (n == 0) return 0.5;
  const double supported = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(supported, 0.5, 0.9);
}

}  // namespace campaign_bench
