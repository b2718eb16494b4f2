// Fig. 11 — the per-client scatter of (Benign AC, Attack SR) for all
// clients under FedAvg + DP on FEMNIST: the population hides a spectrum
// of infection levels. Printed as a 2-D histogram over (AC, SR) deciles
// plus the risk-cluster assignment counts.
#include <iomanip>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

namespace {

using namespace collapois;

sim::ExperimentResult& result() {
  static sim::ExperimentResult r;
  return r;
}

void campaign(benchmark::State& state) {
  sim::ExperimentConfig cfg =
      bench::base_config(sim::DatasetKind::femnist_like);
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = defense::DefenseKind::dp;
  cfg.alpha = 0.1;
  cfg.compromised_fraction = bench::paper_fraction("1%");
  for (auto _ : state) {
    result() = sim::run_experiment(cfg);
    bench::report_counters(state, result());
  }
}
BENCHMARK(campaign)->Iterations(1)->Unit(benchmark::kSecond);

void print_tables() {
  const auto& r = result();
  if (r.final_evals.empty()) return;

  // 2-D histogram over (benign AC, attack SR) in 0.2-wide buckets.
  int hist[5][5] = {};
  for (const auto& e : r.final_evals) {
    if (e.compromised || !e.has_test_data) continue;
    const int i = std::min(4, static_cast<int>(e.benign_ac * 5.0));
    const int j = std::min(4, static_cast<int>(e.attack_sr * 5.0));
    ++hist[i][j];
  }
  std::cout << "== Fig. 11 — client distribution over (Benign AC, Attack "
               "SR), FedAvg+DP, FEMNIST ==\n";
  std::cout << "rows: Benign AC buckets (low->high); cols: Attack SR "
               "buckets (low->high); cells: #clients\n";
  std::cout << std::setw(10) << "AC\\SR";
  for (int j = 0; j < 5; ++j) {
    std::cout << std::setw(8) << (j * 0.2);
  }
  std::cout << "\n";
  for (int i = 0; i < 5; ++i) {
    std::cout << std::setw(10) << std::fixed << std::setprecision(1)
              << (i * 0.2);
    std::cout.unsetf(std::ios::fixed);
    for (int j = 0; j < 5; ++j) std::cout << std::setw(8) << hist[i][j];
    std::cout << "\n";
  }

  sim::print_clusters(std::cout, "risk-cluster assignment (Eq. 8 ranking)",
                      r.clusters);
  std::cout << "(paper shape: a wide spread of Attack SR at similar Benign "
               "AC — the average masks an infected tail)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_tables();
  benchmark::Shutdown();
  return 0;
}
