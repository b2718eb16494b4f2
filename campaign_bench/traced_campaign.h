// The traced campaign: the same campaign sim::run_experiment runs,
// composed from the public entry points of each src/ module with a span
// around every call into a layer. Its final model must match
// run_experiment's bit for bit on the same config and seed (the fidelity
// check); a mismatch means this composition drifted from the product.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign.h"
#include "trace.h"

namespace campaign_bench {

struct TracedCampaign {
  // final_global, rounds (with the telemetry fields run_experiment fills)
  // and population, as run_experiment would return them.
  collapois::sim::ExperimentResult result;
  std::int64_t root_span = -1;
  // Campaign wall time, minus the codec replay (which is not part of the
  // campaign and runs outside every round span).
  double wall_ms = 0.0;
  std::size_t threads = 1;

  // Counts taken at the layer boundaries.
  std::size_t xtrain_samples = 0;       // |D_a|
  std::size_t rows_aggregated = 0;      // updates passed to the defense
  std::size_t clients_materialized = 0; // clients instantiated
  std::size_t clients_built = 0;        // client splits synthesized
  std::size_t checkpoint_saves = 0;
  std::size_t checkpoint_bytes = 0;     // head file size, summed over saves
  // Codec replay: the configured codec's encode_delta / decode_delta over
  // every accepted update of every round (identity when the transport is
  // off), in microseconds.
  double encode_us = 0.0;
  double decode_us = 0.0;
  // The engine's own client-dispatch wall per round
  // (RoundTelemetry::train_ms), the span client updates run inside.
  std::vector<double> dispatch_ms;
};

// Runs one traced campaign of `w`; periodic checkpoints (if the workload
// has them) go to `checkpoint_path`. Supports the configurations the
// benchmark's workloads use (FedAvg server, CollaPois or no attack, any
// aggregation defense, eager or lazy population, either round engine,
// faults, transport, codecs, shards) and throws std::invalid_argument for
// anything else.
TracedCampaign run_traced_campaign(const Workload& w,
                                   const std::string& checkpoint_path,
                                   Tracer& tracer, std::uint32_t campaign_id);

}  // namespace campaign_bench
