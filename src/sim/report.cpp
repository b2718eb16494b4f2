#include "sim/report.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "defense/defense_kernels.h"
#include "kernels/cpu_dispatch.h"

namespace collapois::sim {

void print_series(std::ostream& os, const std::string& title,
                  const std::vector<SeriesRow>& rows) {
  os << "== " << title << " ==\n";
  os << std::left << std::setw(48) << "series" << std::right << std::setw(12)
     << "benign_ac" << std::setw(12) << "attack_sr" << "\n";
  for (const auto& r : rows) {
    os << std::left << std::setw(48) << r.label << std::right << std::fixed
       << std::setprecision(4) << std::setw(12) << r.benign_ac
       << std::setw(12) << r.attack_sr << "\n";
  }
  os.unsetf(std::ios::fixed);
}

void print_clusters(std::ostream& os, const std::string& title,
                    const std::vector<metrics::ClusterResult>& clusters) {
  os << "== " << title << " ==\n";
  os << std::left << std::setw(14) << "cluster" << std::right << std::setw(10)
     << "clients" << std::setw(12) << "benign_ac" << std::setw(12)
     << "attack_sr" << std::setw(10) << "CS_k" << "\n";
  for (const auto& c : clusters) {
    os << std::left << std::setw(14) << c.name << std::right << std::setw(10)
       << c.client_indices.size() << std::fixed << std::setprecision(4)
       << std::setw(12) << c.mean_benign_ac << std::setw(12)
       << c.mean_attack_sr << std::setw(10) << c.label_cosine << "\n";
  }
  os.unsetf(std::ios::fixed);
}

void print_rounds(std::ostream& os, const std::string& title,
                  const std::vector<RoundRecord>& rounds) {
  os << "== " << title << " ==\n";
  os << std::right << std::setw(7) << "round" << std::setw(12) << "benign_ac"
     << std::setw(12) << "attack_sr" << std::setw(12) << "dist_to_X"
     << std::setw(10) << "accepted" << std::setw(10) << "dropped"
     << std::setw(10) << "rejected" << std::setw(8) << "stale" << "\n";
  for (const auto& r : rounds) {
    os << std::right << std::setw(7) << r.round << std::fixed
       << std::setprecision(4);
    if (r.population.has_value()) {
      os << std::setw(12) << r.population->benign_ac << std::setw(12)
         << r.population->attack_sr;
    } else {
      os << std::setw(12) << "-" << std::setw(12) << "-";
    }
    os << std::setw(12) << r.distance_to_x;
    os.unsetf(std::ios::fixed);
    os << std::setw(10) << r.n_accepted << std::setw(10) << r.n_dropped
       << std::setw(10) << r.n_rejected << std::setw(8) << r.n_stragglers;
    if (r.aggregate_skipped) os << "  [round skipped]";
    os << "\n";
  }
}

void write_series_csv(std::ostream& os, const std::vector<SeriesRow>& rows) {
  os << "series,benign_ac,attack_sr\n";
  for (const auto& r : rows) {
    os << r.label << ',' << r.benign_ac << ',' << r.attack_sr << "\n";
  }
}

std::ostream& operator<<(std::ostream& os, JsonNum n) {
  if (std::isfinite(n.v)) return os << n.v;
  return os << "null";
}

void write_rounds_json(std::ostream& os, const ExperimentConfig& config,
                       const std::vector<RoundRecord>& rounds) {
  // The kernels block records which compute path produced this run:
  // kernel set, defense impl, and the runtime-dispatched ISA tier
  // (cpu_dispatch.h) with its microkernel geometry and the cpuid feature
  // flags. BENCH_*/report artifacts are not comparable across tiers
  // without it.
  const kernels::DispatchInfo di = kernels::dispatch_info();
  os << "{\"tag\": \"" << experiment_tag(config) << "\",\n \"kernels\": {"
     << "\"set\": \"" << kernels::kernel_kind_name(config.kernels) << "\""
     << ", \"defense_impl\": \""
     << defense::defense_impl_name(config.defense_impl) << "\""
     << ", \"isa_tier\": \"" << kernels::isa_tier_name(di.tier) << "\""
     << ", \"microkernel\": \"" << di.microkernel << "\""
     << ", \"mr\": " << di.mr << ", \"nr\": " << di.nr
     << ", \"forced\": " << (di.forced ? "true" : "false")
     << ", \"cpu_features\": \"" << kernels::cpu_feature_string() << "\"},\n"
     << " \"rounds\": [";
  bool first = true;
  for (const auto& r : rounds) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"round\": " << r.round << ", \"accepted\": " << r.n_accepted
       << ", \"dropped\": " << r.n_dropped
       << ", \"rejected\": " << r.n_rejected
       << ", \"stragglers\": " << r.n_stragglers
       << ", \"skipped\": " << (r.aggregate_skipped ? "true" : "false")
       << ", \"dist_to_x\": " << JsonNum{r.distance_to_x}
       << ", \"wall_ms\": " << r.wall_ms
       << ", \"train_ms\": " << r.train_ms
       << ", \"agg_ms\": " << r.agg_ms
       << ", \"clients_per_sec\": " << r.clients_per_sec;
    if (config.net.enabled) {
      // Per-round transport block: message counters, bytes-on-wire under
      // the configured codec, and the virtual arrival-time quantiles
      // (see net::TransportStats). compression_ratio is the realized
      // fp32/wire ratio over the round's send attempts (1 when nothing
      // was sent, so the field is always well-formed JSON).
      const double ratio =
          r.transport.wire_bytes_sent > 0
              ? static_cast<double>(r.transport.fp32_bytes_sent) /
                    static_cast<double>(r.transport.wire_bytes_sent)
              : 1.0;
      os << ", \"net\": {\"cohort\": " << r.cohort_size
         << ", \"codec\": \"" << net::codec_kind_name(config.codec.kind)
         << "\""
         << ", \"sent\": " << r.transport.msgs_sent
         << ", \"lost\": " << r.transport.lost
         << ", \"corrupted\": " << r.transport.corrupted
         << ", \"retried\": " << r.transport.retried
         << ", \"duplicated\": " << r.transport.duplicated
         << ", \"transport_dropped\": " << r.transport.transport_dropped
         << ", \"deadline_dropped\": " << r.transport.deadline_dropped
         << ", \"excess_dropped\": " << r.transport.excess_dropped
         << ", \"fp32_bytes_sent\": " << r.transport.fp32_bytes_sent
         << ", \"wire_bytes_sent\": " << r.transport.wire_bytes_sent
         << ", \"wire_bytes_received\": " << r.transport.wire_bytes_received
         << ", \"compression_ratio\": " << ratio
         << ", \"arrival_p50_ms\": " << r.transport.arrival_p50_ms
         << ", \"arrival_p90_ms\": " << r.transport.arrival_p90_ms
         << ", \"arrival_max_ms\": " << r.transport.arrival_max_ms << "}";
    }
    if (config.round_engine == fl::RoundEngineKind::buffered_async) {
      // Per-cycle async block: launch/buffer occupancy, the virtual
      // clock, stale discards, and the per-aggregation staleness
      // histogram (staleness_hist[s] = admitted updates s rounds stale).
      os << ", \"async\": {\"dispatched\": " << r.n_dispatched
         << ", \"stale_discarded\": " << r.n_stale_discarded
         << ", \"buffered\": " << r.n_buffered
         << ", \"virtual_now_ms\": " << r.virtual_now_ms
         << ", \"staleness_hist\": [";
      for (std::size_t s = 0; s < r.staleness_hist.size(); ++s) {
        if (s != 0) os << ", ";
        os << r.staleness_hist[s];
      }
      os << "]}";
    }
    if (config.shards > 1 || config.lazy_clients) {
      // Per-round scale block: the memory story of the sharded/lazy
      // regime (peak RSS so far, distinct clients instantiated).
      os << ", \"scale\": {\"shards\": " << config.shards
         << ", \"lazy\": " << (config.lazy_clients ? "true" : "false")
         << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
         << ", \"materialized\": " << r.n_materialized << "}";
    }
    if (config.shard_faults.any()) {
      // Per-round infrastructure block (DESIGN.md §13): shard failures,
      // retries, failovers and the virtual backoff they cost; "degraded"
      // marks rounds that completed with fewer live shards (bit-exact
      // failover — the result is unchanged, only WHO computed it).
      os << ", \"infra\": {\"shard_failures\": " << r.shard_failures
         << ", \"shard_retries\": " << r.shard_retries
         << ", \"shard_failovers\": " << r.shard_failovers
         << ", \"backoff_virtual_ms\": " << r.shard_backoff_ms
         << ", \"degraded\": " << (r.degraded ? "true" : "false") << "}";
    }
    if (r.population.has_value()) {
      os << ", \"benign_ac\": " << JsonNum{r.population->benign_ac}
         << ", \"attack_sr\": " << JsonNum{r.population->attack_sr};
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string experiment_tag(const ExperimentConfig& config) {
  std::ostringstream ss;
  ss << dataset_name(config.dataset) << '/' << algorithm_name(config.algorithm)
     << '/' << attack_name(config.attack) << '/'
     << defense::defense_name(config.defense) << " a=" << config.alpha
     << " c=" << config.compromised_fraction;
  return ss.str();
}

}  // namespace collapois::sim
