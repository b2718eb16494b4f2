// Console reporting: fixed-width tables matching the rows/series the
// paper's figures plot, plus CSV emission for downstream plotting.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace collapois::sim {

// One row of a figure-style series: a labelled (Benign AC, Attack SR)
// pair, e.g. ("alpha=0.01, collapois", 0.81, 0.88).
struct SeriesRow {
  std::string label;
  double benign_ac = 0.0;
  double attack_sr = 0.0;
};

// Render a titled table of rows ("label | benign_ac | attack_sr").
void print_series(std::ostream& os, const std::string& title,
                  const std::vector<SeriesRow>& rows);

// Cluster table (Fig. 12-style): name | clients | benign AC | attack SR |
// CS_k.
void print_clusters(std::ostream& os, const std::string& title,
                    const std::vector<metrics::ClusterResult>& clusters);

// Per-round table (Fig. 13-style): round | benign AC | attack SR |
// dist-to-X | accepted | dropped | rejected | stale.
void print_rounds(std::ostream& os, const std::string& title,
                  const std::vector<RoundRecord>& rounds);

// Comma-separated emission of a series for plotting.
void write_series_csv(std::ostream& os, const std::vector<SeriesRow>& rows);

// JSON report of a run's per-round records, fault counters and runtime
// telemetry included:
// {"tag": ..., "rounds": [{"round": 0, "accepted": ..., "dropped": ...,
// "rejected": ..., "stragglers": ..., "skipped": ..., "dist_to_x": ...,
// "wall_ms": ..., "train_ms": ..., "agg_ms": ..., "clients_per_sec": ...,
// "benign_ac": ..., "attack_sr": ...}, ...]}. benign_ac/attack_sr appear
// only on rounds where the periodic evaluation ran.
void write_rounds_json(std::ostream& os, const ExperimentConfig& config,
                       const std::vector<RoundRecord>& rounds);

// A double streamed as a JSON number. JSON has no NaN/Infinity literal;
// a diverged metric (e.g. dist_to_x after the trajectory blew up under a
// lossy codec) must serialize as null, not as the "-nan" that ostream
// would print — which breaks every downstream json.load.
struct JsonNum {
  double v;
};
std::ostream& operator<<(std::ostream& os, JsonNum n);

// Short "dataset/algorithm/attack/defense alpha=..." experiment tag used
// as a row label.
std::string experiment_tag(const ExperimentConfig& config);

}  // namespace collapois::sim
