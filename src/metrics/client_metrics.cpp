#include "metrics/client_metrics.h"

#include <algorithm>
#include <stdexcept>

#include "nn/eval.h"
#include "nn/scratch.h"
#include "runtime/parallel.h"
#include "trojan/poison.h"

namespace collapois::metrics {

std::vector<ClientEval> evaluate_clients(fl::FlAlgorithm& algo,
                                         const data::FederatedData& fed,
                                         const trojan::Trigger& eval_trigger,
                                         const nn::Model& architecture,
                                         const std::vector<bool>& compromised,
                                         const EvalConfig& config) {
  return evaluate_clients(
      algo, fed.num_clients(),
      [&fed](std::size_t i) -> const data::ClientSplit& {
        return fed.clients[i];
      },
      eval_trigger, architecture, compromised, config);
}

std::vector<ClientEval> evaluate_clients(
    fl::FlAlgorithm& algo, std::size_t n_clients,
    const std::function<const data::ClientSplit&(std::size_t)>& split_of,
    const trojan::Trigger& eval_trigger, const nn::Model& architecture,
    const std::vector<bool>& compromised, const EvalConfig& config) {
  const std::size_t n = n_clients;
  if (algo.num_clients() != n || compromised.size() != n) {
    throw std::invalid_argument("evaluate_clients: population size mismatch");
  }
  // Pick the evaluation subset: uniform stride over the population.
  std::vector<std::size_t> targets;
  if (config.max_clients == 0 || config.max_clients >= n) {
    targets.resize(n);
    for (std::size_t i = 0; i < n; ++i) targets[i] = i;
  } else {
    const double stride =
        static_cast<double>(n) / static_cast<double>(config.max_clients);
    for (std::size_t k = 0; k < config.max_clients; ++k) {
      targets.push_back(static_cast<std::size_t>(stride * static_cast<double>(k)));
    }
  }

  // The sweep dominates post-training time on large populations, so it
  // runs on the pool: one task per client, each borrowing its worker's
  // scratch model (nn/scratch.h), results written by index
  // (order-independent, so the output matches the sequential sweep
  // exactly).
  const nn::Architecture arch(architecture);
  std::vector<ClientEval> out(targets.size());
  runtime::parallel_for(config.pool, targets.size(), [&](std::size_t k) {
    const std::size_t i = targets[k];
    ClientEval e;
    e.client_index = i;
    e.compromised = compromised[i];
    const data::Dataset& test = split_of(i).test;
    if (!test.empty()) {
      e.has_test_data = true;
      // Personalizing clients borrow a scratch of their own inside
      // client_eval_params; take this one after it returns.
      const tensor::FlatVec params = algo.client_eval_params(i);
      nn::ScratchModel model(arch);
      model->set_parameters(params);
      e.benign_ac = nn::accuracy(*model, test);
      const data::Dataset trojaned =
          trojan::apply_trigger_all(test, eval_trigger, config.target_label);
      e.attack_sr = nn::accuracy(*model, trojaned);
    }
    out[k] = e;
  });
  return out;
}

namespace {

std::vector<const ClientEval*> benign_with_data(
    const std::vector<ClientEval>& evals) {
  std::vector<const ClientEval*> out;
  for (const auto& e : evals) {
    if (!e.compromised && e.has_test_data) out.push_back(&e);
  }
  return out;
}

PopulationMetrics average_of(const std::vector<const ClientEval*>& group) {
  PopulationMetrics m;
  m.clients = group.size();
  if (group.empty()) return m;
  for (const ClientEval* e : group) {
    m.benign_ac += e->benign_ac;
    m.attack_sr += e->attack_sr;
  }
  m.benign_ac /= static_cast<double>(group.size());
  m.attack_sr /= static_cast<double>(group.size());
  return m;
}

}  // namespace

PopulationMetrics average_benign(const std::vector<ClientEval>& evals) {
  return average_of(benign_with_data(evals));
}

PopulationMetrics average_top_k(const std::vector<ClientEval>& evals,
                                double k_percent) {
  if (k_percent <= 0.0 || k_percent > 100.0) {
    throw std::invalid_argument("average_top_k: k must be in (0, 100]");
  }
  auto group = benign_with_data(evals);
  std::sort(group.begin(), group.end(),
            [](const ClientEval* a, const ClientEval* b) {
              return a->score() > b->score();
            });
  std::size_t take = static_cast<std::size_t>(
      k_percent / 100.0 * static_cast<double>(group.size()));
  take = std::max<std::size_t>(take, 1);
  take = std::min(take, group.size());
  group.resize(take);
  return average_of(group);
}

double fraction_infected(const std::vector<ClientEval>& evals,
                         double threshold) {
  const auto group = benign_with_data(evals);
  if (group.empty()) return 0.0;
  std::size_t infected = 0;
  for (const ClientEval* e : group) {
    if (e->attack_sr > threshold) ++infected;
  }
  return static_cast<double>(infected) / static_cast<double>(group.size());
}

}  // namespace collapois::metrics
