// The benchmark's workloads, the correctness checks every campaign goes
// through, and the small statistics helpers the reports share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"

namespace campaign_bench {

// One poisoning campaign shape. The seed passed on the command line is
// the only input that varies between runs of a workload.
struct Workload {
  std::string name;
  collapois::sim::ExperimentConfig config;
  // Durable periodic checkpointing (0 = none), through RunOptions.
  std::size_t checkpoint_every = 0;
  std::size_t checkpoint_keep = 3;
  // Largest accepted distance between a campaign's benign_ac / attack_sr
  // and the reference campaign's for the same seed.
  double benign_ac_tolerance = 0.0;
  double attack_sr_tolerance = 0.0;
};

// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The reference configuration of a workload: the same campaign on the
// sequential path (threads = 1) with the reference ("naive") defense
// kernels, and the reference compute kernels where the model is small
// enough for them to fit a run (the MLP; LeNet keeps the blocked set).
collapois::sim::ExperimentConfig reference_config(const Workload& w);

// RunOptions that make a campaign write its periodic checkpoints into
// `checkpoint_path` (no checkpointing when the workload has none).
collapois::sim::RunOptions campaign_options(const Workload& w,
                                            const std::string& checkpoint_path);

// FNV-1a over the bytes of a parameter vector.
std::uint64_t digest(const std::vector<float>& params);

// Every violated check of one campaign, empty when it passed:
//  - the final model is non-empty and finite;
//  - every round keeps cohort_size == accepted + dropped + rejected;
//  - the campaign ran the configured number of rounds;
//  - benign_ac and attack_sr are finite and within the workload's
//    tolerance of the reference campaign's.
std::vector<std::string> check_campaign(
    const Workload& w, const collapois::sim::ExperimentResult& result,
    const collapois::sim::ExperimentResult& reference);

// Shows that check_campaign catches corrupted results: a NaN in the final
// model, a broken cohort invariant, a missing round and an accuracy
// outside the tolerance each fail, and the uncorrupted result passes.
// Prints one line per case; returns false when any case is misjudged.
bool self_test();

// Median of a non-empty sample.
double median(std::vector<double> v);
// Median, or 0 for an empty sample (a layer or phase that never ran).
double median_or_zero(std::vector<double> v);
// Nearest-rank percentile p in [0, 1] of a non-empty sample.
double percentile(std::vector<double> v, double p);
// The highest percentile, capped at 0.9, that leaves at least ten samples
// beyond it (the tail percentile a sample of this size supports).
double tail_percentile_rank(std::size_t n);

}  // namespace campaign_bench
