#include "traced_campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "agg/lazy_federation.h"
#include "agg/lazy_population.h"
#include "agg/sharded_aggregator.h"
#include "core/collapois_client.h"
#include "core/trojan_trainer.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "defense/registry.h"
#include "fl/faults.h"
#include "fl/server_algorithm.h"
#include "kernels/kernels.h"
#include "metrics/client_metrics.h"
#include "metrics/clusters.h"
#include "metrics/telemetry.h"
#include "net/codec.h"
#include "net/network_model.h"
#include "nn/zoo.h"
#include "runtime/thread_pool.h"
#include "sim/checkpoint.h"
#include "sim/checkpoint_store.h"
#include "stats/geometry.h"
#include "trojan/embedding_trigger.h"
#include "trojan/warp_trigger.h"

namespace campaign_bench {

namespace {

namespace cp = collapois;

// The data, model and triggers of one campaign, drawn from the run RNG in
// the order run_experiment draws them.
struct Workbench {
  cp::data::FederatedData fed;  // eager populations
  std::unique_ptr<cp::agg::LazyFederation> lazy_fed;
  cp::nn::Model architecture;
  std::unique_ptr<cp::trojan::Trigger> trigger;

  const cp::data::ClientSplit& client_data(std::size_t i) {
    return lazy_fed ? lazy_fed->client_data(i) : fed.clients[i];
  }
  std::size_t num_classes() const {
    return lazy_fed ? lazy_fed->num_classes() : fed.num_classes;
  }
};

template <typename Generator>
void build_clients_data(Workbench& wb, const cp::sim::ExperimentConfig& cfg,
                        const Generator& gen, std::uint64_t data_seed,
                        cp::stats::Rng& rng, Tracer& tracer) {
  if (cfg.lazy_clients) {
    wb.lazy_fed = std::make_unique<cp::agg::LazyFederation>(
        cfg.n_clients, gen.num_classes(),
        traced_synthesis(cp::agg::make_dirichlet_split_factory(
                             gen, data_seed, cfg.samples_per_client,
                             cfg.alpha),
                         tracer));
  } else {
    ScopedSpan span(tracer, "data.synth");
    wb.fed = cp::data::build_federation(gen, cfg.n_clients,
                                        cfg.samples_per_client, cfg.alpha, rng);
  }
}

Workbench build_workbench(const cp::sim::ExperimentConfig& cfg,
                          cp::stats::Rng& rng, Tracer& tracer) {
  Workbench wb;
  if (cfg.dataset == cp::sim::DatasetKind::femnist_like) {
    cp::data::SyntheticImageConfig icfg;
    const std::uint64_t data_seed = rng.next_u64();
    cp::data::SyntheticImageGenerator gen(icfg, data_seed);
    build_clients_data(wb, cfg, gen, data_seed, rng, tracer);
    ScopedSpan span(tracer, "nn.init");
    cp::nn::LeNetConfig mcfg;
    mcfg.height = icfg.height;
    mcfg.width = icfg.width;
    mcfg.num_classes = icfg.num_classes;
    wb.architecture = cp::nn::make_lenet_small(mcfg);
    cp::trojan::WarpConfig wcfg;
    wcfg.height = icfg.height;
    wcfg.width = icfg.width;
    const std::uint64_t trigger_seed = rng.next_u64();
    wb.trigger = std::make_unique<cp::trojan::WarpTrigger>(wcfg, trigger_seed);
    wb.architecture.init(rng);
  } else {
    cp::data::SyntheticTextConfig tcfg;
    const std::uint64_t data_seed = rng.next_u64();
    cp::data::SyntheticTextGenerator gen(tcfg, data_seed);
    build_clients_data(wb, cfg, gen, data_seed, rng, tracer);
    ScopedSpan span(tracer, "nn.init");
    cp::nn::MlpConfig mcfg;
    mcfg.input_dim = tcfg.embedding_dim;
    mcfg.num_classes = tcfg.num_classes;
    wb.architecture = cp::nn::make_mlp_head(mcfg);
    cp::trojan::EmbeddingTriggerConfig ecfg;
    ecfg.dim = tcfg.embedding_dim;
    wb.trigger = cp::trojan::EmbeddingTrigger(ecfg, rng.next_u64()).clone();
    wb.architecture.init(rng);
  }
  return wb;
}

void require_supported(const cp::sim::ExperimentConfig& cfg) {
  const bool ok =
      cfg.algorithm == cp::sim::AlgorithmKind::fedavg &&
      (cfg.attack == cp::sim::AttackKind::none ||
       cfg.attack == cp::sim::AttackKind::collapois) &&
      cfg.defense != cp::defense::DefenseKind::ditto &&
      !cfg.shard_faults.any();
  if (!ok) {
    throw std::invalid_argument(
        "traced campaign: supports FedAvg with CollaPois or no attack, an "
        "aggregation defense and no shard faults");
  }
}

}  // namespace

TracedCampaign run_traced_campaign(const Workload& w,
                                   const std::string& checkpoint_path,
                                   Tracer& tracer, std::uint32_t campaign_id) {
  const cp::sim::ExperimentConfig& cfg = w.config;
  require_supported(cfg);
  tracer.set_campaign(campaign_id);

  TracedCampaign out;
  cp::sim::ExperimentResult& result = out.result;
  double replay_ms = 0.0;
  const double t_start = tracer.now_ms();
  ScopedSpan campaign(tracer, "campaign");
  out.root_span = campaign.id();

  cp::kernels::set_active_kernels(cfg.kernels);
  cp::defense::set_active_defense_impl(cfg.defense_impl);
  out.threads = cp::runtime::resolve_thread_count(cfg.threads);
  std::unique_ptr<cp::runtime::ThreadPool> pool;
  if (out.threads > 1) {
    ScopedSpan span(tracer, "runtime.pool_start");
    pool = std::make_unique<cp::runtime::ThreadPool>(out.threads);
  }

  cp::stats::Rng rng(cfg.seed);
  Workbench wb = build_workbench(cfg, rng, tracer);
  const std::size_t n = cfg.n_clients;

  // --- compromised set and D_a (core) ------------------------------------
  std::vector<bool> compromised(n, false);
  cp::data::Dataset auxiliary;
  if (cfg.attack != cp::sim::AttackKind::none) {
    ScopedSpan span(tracer, "core.aux_pool");
    std::size_t c = static_cast<std::size_t>(
        cfg.compromised_fraction * static_cast<double>(n) + 0.5);
    c = std::min(std::max<std::size_t>(c, 1), n);
    result.compromised_ids = rng.sample_without_replacement(n, c);
    for (std::size_t id : result.compromised_ids) compromised[id] = true;
    std::vector<const cp::data::Dataset*> parts;
    for (std::size_t id : result.compromised_ids) {
      parts.push_back(&wb.client_data(id).validation);
      if (!cfg.aux_validation_only) parts.push_back(&wb.client_data(id).train);
    }
    auxiliary = cp::core::pool_auxiliary_data(parts);
    if (auxiliary.empty()) {
      parts.clear();
      for (std::size_t id : result.compromised_ids) {
        parts.push_back(&wb.client_data(id).train);
      }
      auxiliary = cp::core::pool_auxiliary_data(parts);
    }
    result.auxiliary_histogram = auxiliary.label_histogram();
    out.xtrain_samples = auxiliary.size();
  }

  std::shared_ptr<cp::fl::FaultModel> fault_model;
  if (cfg.faults.any()) {
    fault_model = std::make_shared<cp::fl::FaultModel>(cfg.faults);
    if (cfg.round_engine == cp::fl::RoundEngineKind::buffered_async) {
      fault_model->set_extra_retention(cfg.async.max_staleness + 1);
    }
  }

  // --- client population (fl / agg) --------------------------------------
  // The tracing decorator sits directly around the built client, inside
  // the fault decorator: a client the fault model drops never trains and
  // records no span.
  std::vector<cp::core::CollaPoisClient*> collapois_clients;
  auto make_benign = [&](std::size_t i, cp::stats::Rng crng)
      -> std::unique_ptr<cp::fl::Client> {
    return std::make_unique<cp::fl::BenignClient>(
        i, &wb.client_data(i).train, wb.architecture, cfg.local_sgd,
        cfg.metafed_distill_weight, std::move(crng));
  };
  auto make_client = [&](std::size_t i, cp::stats::Rng crng)
      -> std::unique_ptr<cp::fl::Client> {
    std::unique_ptr<cp::fl::Client> c;
    if (!compromised[i]) {
      c = make_benign(i, std::move(crng));
    } else {
      auto attacker = std::make_unique<cp::core::CollaPoisClient>(
          i, result.trojaned_model, cfg.collapois, crng.fork(),
          make_benign(i, std::move(crng)));
      collapois_clients.push_back(attacker.get());
      c = std::move(attacker);
    }
    c = std::make_unique<TracedClient>(std::move(c), tracer);
    if (fault_model) {
      c = std::make_unique<cp::fl::FaultyClient>(std::move(c), fault_model);
    }
    return c;
  };
  std::vector<std::unique_ptr<cp::fl::Client>> clients;
  cp::agg::LazyClientPopulation::Factory lazy_factory;
  if (cfg.lazy_clients) {
    const std::uint64_t client_seed_base = rng.next_u64();
    lazy_factory = traced_materialization(
        [&, client_seed_base](std::size_t i) {
          return make_client(
              i, cp::stats::Rng(cp::agg::derive_client_seed(client_seed_base,
                                                            i)));
        },
        tracer);
  } else {
    ScopedSpan span(tracer, "agg.materialize");
    clients.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      cp::stats::Rng crng = rng.fork();
      clients.push_back(make_client(i, std::move(crng)));
    }
  }

  // --- server, defense, transport (fl / defense / net) --------------------
  std::unique_ptr<cp::net::NetworkModel> net_model;
  std::unique_ptr<cp::fl::ServerAlgorithm> algo;
  TracedAggregator* traced_agg = nullptr;
  {
    ScopedSpan span(tracer, "fl.setup");
    if (cfg.net.enabled) {
      net_model = std::make_unique<cp::net::NetworkModel>(cfg.net);
    }
    auto aggregator = cp::defense::make_defense(cfg.defense,
                                                cfg.defense_params, rng.fork());
    if (cfg.shards > 1) {
      aggregator = std::make_unique<cp::agg::ShardedAggregator>(
          std::move(aggregator), cfg.shards);
    }
    auto traced = std::make_unique<TracedAggregator>(std::move(aggregator),
                                                     tracer);
    traced_agg = traced.get();
    cp::fl::ServerConfig scfg;
    scfg.learning_rate = cfg.server_lr;
    scfg.sample_prob = cfg.sample_prob;
    scfg.update_norm_ceiling = cfg.update_norm_ceiling;
    scfg.pool = pool.get();
    scfg.net = net_model.get();
    scfg.codec = cfg.codec;
    scfg.engine = cfg.round_engine;
    scfg.async = cfg.async;
    const std::string name = cp::sim::algorithm_name(cfg.algorithm);
    if (cfg.lazy_clients) {
      algo = std::make_unique<cp::fl::ServerAlgorithm>(
          name, wb.architecture.get_parameters(), std::move(traced), scfg,
          std::make_unique<cp::agg::LazyClientPopulation>(
              n, std::move(lazy_factory)),
          rng.fork());
    } else {
      algo = std::make_unique<cp::fl::ServerAlgorithm>(
          name, wb.architecture.get_parameters(), std::move(traced), scfg,
          std::move(clients), rng.fork());
    }
  }

  auto eval_clients = [&](const cp::metrics::EvalConfig& ec) {
    ScopedSpan span(tracer, "metrics.eval");
    if (cfg.lazy_clients) {
      return cp::metrics::evaluate_clients(
          *algo, n,
          [&](std::size_t i) -> const cp::data::ClientSplit& {
            return wb.client_data(i);
          },
          *wb.trigger, wb.architecture, compromised, ec);
    }
    return cp::metrics::evaluate_clients(*algo, wb.fed, *wb.trigger,
                                         wb.architecture, compromised, ec);
  };

  std::unique_ptr<cp::sim::CheckpointStore> store;
  if (w.checkpoint_every > 0) {
    store = std::make_unique<cp::sim::CheckpointStore>(
        checkpoint_path, std::max<std::size_t>(w.checkpoint_keep, 1));
  }
  auto make_checkpoint = [&](std::size_t rounds_completed) {
    cp::sim::Checkpoint ck;
    ck.fingerprint = cp::sim::config_fingerprint(cfg);
    ck.net_fingerprint = cp::sim::net_fingerprint(cfg.net);
    ck.engine_fingerprint = cp::sim::engine_fingerprint(cfg);
    ck.scale_fingerprint = cp::sim::scale_fingerprint(cfg);
    ck.codec_fingerprint = cp::sim::codec_fingerprint(cfg.codec);
    ck.rounds_completed = rounds_completed;
    ck.run_rng = rng.state();
    ck.trojaned_model = result.trojaned_model;
    if (fault_model) {
      cp::fl::StateWriter sw;
      fault_model->save_state(sw);
      ck.fault_state = sw.take();
    }
    if (net_model) {
      cp::fl::StateWriter sw;
      net_model->save_state(sw);
      ck.net_state = sw.take();
    }
    cp::fl::StateWriter sw;
    algo->save_state(sw);
    ck.algo_state = sw.take();
    return ck;
  };

  cp::metrics::EvalConfig periodic_eval;
  periodic_eval.target_label = cfg.target_label;
  periodic_eval.max_clients = cfg.eval_max_clients;
  periodic_eval.pool = pool.get();

  // --- round loop ----------------------------------------------------------
  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    if (t >= cfg.attack_start_round &&
        cfg.attack == cp::sim::AttackKind::collapois &&
        result.trojaned_model.empty()) {
      ScopedSpan span(tracer, "core.xtrain");
      cp::nn::Model attacker_model = wb.architecture;
      attacker_model.set_parameters(algo->global_params());
      cp::stats::Rng attacker_rng = rng.fork();
      cp::kernels::ScopedKernelPool lend(pool.get());
      auto trained = cp::core::train_trojaned_model(
          std::move(attacker_model), auxiliary, *wb.trigger, cfg.trojan_train,
          attacker_rng);
      result.trojaned_model = std::move(trained.x);
      for (auto* c : collapois_clients) {
        c->set_trojaned_model(result.trojaned_model);
      }
    }

    cp::fl::RoundTelemetry telemetry;
    {
      ScopedSpan span(tracer, "fl.round");
      telemetry = algo->run_round();
    }
    cp::sim::RoundRecord rec;
    rec.round = t;
    {
      ScopedSpan span(tracer, "metrics.angle_summary");
      rec.angles = cp::metrics::summarize_round_angles(telemetry);
    }
    rec.n_accepted = telemetry.sampled_ids.size();
    rec.n_dropped = telemetry.dropped_ids.size();
    rec.n_rejected = telemetry.rejected_ids.size();
    rec.cohort_size = telemetry.cohort_size;
    rec.transport = telemetry.transport;
    rec.wall_ms = telemetry.wall_ms;
    rec.train_ms = telemetry.train_ms;
    rec.agg_ms = telemetry.agg_ms;
    rec.n_materialized = telemetry.n_materialized;
    rec.shard_failovers = telemetry.infra.shard_failovers;
    if (!result.trojaned_model.empty()) {
      ScopedSpan span(tracer, "metrics.distance");
      rec.distance_to_x =
          cp::stats::l2_distance(algo->global_params(), result.trojaned_model);
    }
    if (cfg.eval_every > 0 && (t + 1) % cfg.eval_every == 0) {
      rec.population = cp::metrics::average_benign(eval_clients(periodic_eval));
    }
    out.dispatch_ms.push_back(telemetry.train_ms);
    result.rounds.push_back(std::move(rec));

    if (store && (t + 1) % w.checkpoint_every == 0) {
      ScopedSpan span(tracer, "sim.checkpoint_save");
      store->save(make_checkpoint(t + 1));
      out.checkpoint_bytes += static_cast<std::size_t>(
          std::filesystem::file_size(store->head_path()));
      ++out.checkpoint_saves;
    }

    // Codec replay, outside the round span and subtracted from the wall.
    const double replay_start = tracer.now_ms();
    {
      ScopedSpan span(tracer, "net.replay");
      for (const auto& u : telemetry.updates) {
        cp::fl::StateWriter sw;
        const auto e0 = std::chrono::steady_clock::now();
        cp::net::encode_delta(sw, u.delta, cfg.codec);
        const auto e1 = std::chrono::steady_clock::now();
        cp::fl::StateReader sr(sw.bytes());
        const auto decoded = cp::net::decode_delta(sr, cfg.codec);
        const auto e2 = std::chrono::steady_clock::now();
        if (decoded.size() != u.delta.size()) {
          throw std::runtime_error("codec replay: decoded size mismatch");
        }
        out.encode_us +=
            std::chrono::duration<double, std::micro>(e1 - e0).count();
        out.decode_us +=
            std::chrono::duration<double, std::micro>(e2 - e1).count();
      }
    }
    replay_ms += tracer.now_ms() - replay_start;
  }

  // --- final evaluation and clusters (metrics) ----------------------------
  result.final_global = algo->global_params();
  cp::metrics::EvalConfig final_eval;
  final_eval.target_label = cfg.target_label;
  final_eval.max_clients = cfg.lazy_clients ? cfg.eval_max_clients : 0;
  final_eval.pool = pool.get();
  result.final_evals = eval_clients(final_eval);
  result.population = cp::metrics::average_benign(result.final_evals);
  {
    ScopedSpan span(tracer, "metrics.clusters");
    std::vector<std::vector<double>> histograms;
    if (cfg.lazy_clients) {
      histograms.resize(n);
      for (const auto& e : result.final_evals) {
        histograms[e.client_index] =
            wb.lazy_fed->client_histogram(e.client_index);
      }
    } else {
      histograms = wb.fed.client_label_histograms();
    }
    std::vector<double> aux_hist = result.auxiliary_histogram;
    if (aux_hist.empty()) aux_hist.assign(wb.num_classes(), 1.0);
    result.clusters = cp::metrics::risk_clusters(result.final_evals,
                                                 {1, 25, 50}, histograms,
                                                 aux_hist);
  }

  out.rows_aggregated = traced_agg->rows_aggregated();
  out.clients_materialized = algo->population().materialized();
  out.clients_built = cfg.lazy_clients ? wb.lazy_fed->materialized() : n;
  out.wall_ms = tracer.now_ms() - t_start - replay_ms;
  return out;
}

}  // namespace campaign_bench
