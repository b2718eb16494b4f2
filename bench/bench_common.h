// Shared scaffolding for the benches: the bench-sized base experiment,
// the paper's compromised-fraction levels, and the google-benchmark
// counters the campaign benches report.
//
// COLLAPOIS_SCALE=k (k = 1, 2, 3, ...) multiplies clients and rounds for
// higher-fidelity runs; defaults are sized for a 1-core CI box.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/runner.h"

namespace collapois::bench {

inline std::size_t scale() {
  const char* env = std::getenv("COLLAPOIS_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<std::size_t>(v) : 1;
}

// Base experiment sized to the bench budget; benches override fields.
inline sim::ExperimentConfig base_config(sim::DatasetKind dataset) {
  sim::ExperimentConfig cfg;
  cfg.dataset = dataset;
  const std::size_t s = scale();
  cfg.n_clients = 100 * s;
  cfg.rounds = 200 * s;
  cfg.seed = 1234;
  return cfg;
}

// The paper compromises 0.1% / 0.5% / 1% of 3,400-5,600 clients over
// 1000+ rounds; the scale-preserving quantity is the total malicious
// pull mass T * |C| / N (see EXPERIMENTS.md). These fractions reproduce
// the paper's mass levels at the simulator's round budget.
inline double paper_fraction(const std::string& label) {
  if (label == "0.1%") return 0.01;
  if (label == "0.5%") return 0.025;
  if (label == "1%") return 0.05;
  throw std::invalid_argument("paper_fraction: unknown level " + label);
}

inline void report_counters(benchmark::State& state,
                            const sim::ExperimentResult& result) {
  state.counters["benign_ac"] = result.population.benign_ac;
  state.counters["attack_sr"] = result.population.attack_sr;
}

}  // namespace collapois::bench
