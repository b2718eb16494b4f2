// Integration tests: the full experiment pipeline at miniature scale,
// across every (algorithm x attack x defense-representative) combination,
// checking structural invariants and the headline behaviours (backdoor
// takes hold without defense; reports are well-formed).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/report.h"
#include "sim/runner.h"

namespace collapois::sim {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::sentiment_like;  // cheapest substrate
  cfg.n_clients = 12;
  cfg.samples_per_client = 40;
  cfg.alpha = 1.0;
  cfg.compromised_fraction = 0.2;  // 2-3 clients at this scale
  cfg.sample_prob = 0.4;
  cfg.rounds = 12;
  cfg.attack_start_round = 4;
  cfg.seed = 77;
  return cfg;
}

void check_invariants(const ExperimentConfig& cfg,
                      const ExperimentResult& r) {
  EXPECT_EQ(r.final_evals.size(), cfg.n_clients);
  EXPECT_EQ(r.rounds.size(), cfg.rounds);
  for (const auto& e : r.final_evals) {
    EXPECT_GE(e.benign_ac, 0.0);
    EXPECT_LE(e.benign_ac, 1.0);
    EXPECT_GE(e.attack_sr, 0.0);
    EXPECT_LE(e.attack_sr, 1.0);
  }
  if (cfg.attack != AttackKind::none) {
    EXPECT_FALSE(r.compromised_ids.empty());
    std::set<std::size_t> uniq(r.compromised_ids.begin(),
                               r.compromised_ids.end());
    EXPECT_EQ(uniq.size(), r.compromised_ids.size());
    EXPECT_FALSE(r.auxiliary_histogram.empty());
  } else {
    EXPECT_TRUE(r.compromised_ids.empty());
  }
  // Clusters partition the benign-with-data population.
  std::set<std::size_t> seen;
  for (const auto& c : r.clusters) {
    for (std::size_t idx : c.client_indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
}

class AttackSweep : public ::testing::TestWithParam<AttackKind> {};

TEST_P(AttackSweep, FedAvgPipelineInvariants) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = GetParam();
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

INSTANTIATE_TEST_SUITE_P(Attacks, AttackSweep,
                         ::testing::Values(AttackKind::none,
                                           AttackKind::collapois,
                                           AttackKind::dpois,
                                           AttackKind::mrepl,
                                           AttackKind::dba));

class AlgorithmSweep : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(AlgorithmSweep, CollaPoisRunsOnEveryAlgorithm) {
  ExperimentConfig cfg = tiny_config();
  cfg.algorithm = GetParam();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
  EXPECT_FALSE(r.trojaned_model.empty());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmSweep,
                         ::testing::Values(AlgorithmKind::fedavg,
                                           AlgorithmKind::feddc,
                                           AlgorithmKind::metafed));

class DefenseSweep : public ::testing::TestWithParam<defense::DefenseKind> {};

TEST_P(DefenseSweep, CollaPoisUnderEveryDefense) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  cfg.defense = GetParam();
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

INSTANTIATE_TEST_SUITE_P(
    Defenses, DefenseSweep,
    ::testing::Values(defense::DefenseKind::none, defense::DefenseKind::dp,
                      defense::DefenseKind::norm_bound,
                      defense::DefenseKind::krum,
                      defense::DefenseKind::multi_krum,
                      defense::DefenseKind::coord_median,
                      defense::DefenseKind::trimmed_mean,
                      defense::DefenseKind::rlr,
                      defense::DefenseKind::sign_sgd));

TEST(SimIntegration, CollaPoisBeatsNoAttackBaseline) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::none;
  const double base_sr = run_experiment(cfg).population.attack_sr;
  cfg.attack = AttackKind::collapois;
  const ExperimentResult attacked = run_experiment(cfg);
  EXPECT_GT(attacked.population.attack_sr, base_sr);
  // Stealthiness: clean accuracy does not collapse.
  EXPECT_GT(attacked.population.benign_ac, 0.6);
}

TEST(SimIntegration, ImageSubstrateEndToEnd) {
  ExperimentConfig cfg = tiny_config();
  cfg.dataset = DatasetKind::femnist_like;
  cfg.attack = AttackKind::collapois;
  cfg.rounds = 10;
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

TEST(SimIntegration, DistanceToXShrinksAfterStrike) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  cfg.rounds = 25;
  const ExperimentResult r = run_experiment(cfg);
  double at_strike = 0.0;
  for (const auto& rec : r.rounds) {
    if (rec.distance_to_x > 0.0) {
      at_strike = rec.distance_to_x;
      break;
    }
  }
  ASSERT_GT(at_strike, 0.0);
  EXPECT_LT(r.rounds.back().distance_to_x, at_strike);
}

TEST(SimIntegration, PeriodicEvalPopulatesRecords) {
  ExperimentConfig cfg = tiny_config();
  cfg.eval_every = 4;
  cfg.eval_max_clients = 4;
  const ExperimentResult r = run_experiment(cfg);
  int populated = 0;
  for (const auto& rec : r.rounds) {
    if (rec.population.has_value()) ++populated;
  }
  EXPECT_EQ(populated, static_cast<int>(cfg.rounds / cfg.eval_every));
}

TEST(SimIntegration, TelemetryRetention) {
  ExperimentConfig cfg = tiny_config();
  RunOptions opt;
  opt.keep_telemetry = true;
  const ExperimentResult r = run_experiment(cfg, opt);
  EXPECT_EQ(r.telemetry.size(), cfg.rounds);
  const ExperimentResult r2 = run_experiment(cfg);
  EXPECT_TRUE(r2.telemetry.empty());
}

TEST(SimIntegration, DeterministicAcrossRuns) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.population.benign_ac, b.population.benign_ac);
  EXPECT_EQ(a.population.attack_sr, b.population.attack_sr);
  EXPECT_EQ(a.compromised_ids, b.compromised_ids);
}

TEST(SimIntegration, SeedChangesOutcome) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult a = run_experiment(cfg);
  cfg.seed = 78;
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_NE(a.population.benign_ac, b.population.benign_ac);
}

TEST(SimIntegration, MetaFedRejectsAggregationDefenses) {
  ExperimentConfig cfg = tiny_config();
  cfg.algorithm = AlgorithmKind::metafed;
  cfg.defense = defense::DefenseKind::krum;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.defense = defense::DefenseKind::rlr;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  // DP and NormBound compose (via the knowledge-transfer analogue).
  cfg.defense = defense::DefenseKind::dp;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(SimIntegration, ConfigParsersRoundTrip) {
  EXPECT_EQ(parse_dataset(dataset_name(DatasetKind::femnist_like)),
            DatasetKind::femnist_like);
  EXPECT_EQ(parse_algorithm(algorithm_name(AlgorithmKind::metafed)),
            AlgorithmKind::metafed);
  EXPECT_EQ(parse_attack(attack_name(AttackKind::dba)), AttackKind::dba);
  EXPECT_THROW(parse_dataset("x"), std::invalid_argument);
  EXPECT_THROW(parse_algorithm("x"), std::invalid_argument);
  EXPECT_THROW(parse_attack("x"), std::invalid_argument);
  EXPECT_THROW(run_experiment([] {
    ExperimentConfig c = tiny_config();
    c.rounds = 0;
    return c;
  }()), std::invalid_argument);
}

TEST(SimIntegration, ReportRendering) {
  std::ostringstream os;
  print_series(os, "demo", {{"row-a", 0.91, 0.55}, {"row-b", 0.80, 0.10}});
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("row-a"), std::string::npos);
  EXPECT_NE(s.find("0.9100"), std::string::npos);

  std::ostringstream csv;
  write_series_csv(csv, {{"r", 0.5, 0.25}});
  EXPECT_EQ(csv.str(), "series,benign_ac,attack_sr\nr,0.5,0.25\n");

  ExperimentConfig cfg = tiny_config();
  const std::string tag = experiment_tag(cfg);
  EXPECT_NE(tag.find("sentiment"), std::string::npos);
  EXPECT_NE(tag.find("collapois"), std::string::npos);
}

// One case per config rule that only the command line used to enforce:
// run_experiment must refuse each before any work starts, naming the rule.
TEST(RunnerValidation, RejectsEveryConfigRule) {
  using Break = void (*)(ExperimentConfig&, RunOptions&);
  const std::pair<const char*, Break> cases[] = {
      {"n_clients (--clients) must be at least 1",
       [](ExperimentConfig& c, RunOptions&) { c.n_clients = 0; }},
      {"sample_prob (--q) must be in (0, 1]",
       [](ExperimentConfig& c, RunOptions&) { c.sample_prob = 0.0; }},
      {"sample_prob (--q) must be in (0, 1]",
       [](ExperimentConfig& c, RunOptions&) { c.sample_prob = 1.5; }},
      {"alpha (--alpha) must be finite and positive",
       [](ExperimentConfig& c, RunOptions&) { c.alpha = 0.0; }},
      {"alpha (--alpha) must be finite and positive",
       [](ExperimentConfig& c, RunOptions&) {
         c.alpha = std::numeric_limits<double>::infinity();
       }},
      {"compromised_fraction (--fraction) must be in [0, 1]",
       [](ExperimentConfig& c, RunOptions&) { c.compromised_fraction = 1.5; }},
      {"update_norm_ceiling (--norm-ceiling) must be finite",
       [](ExperimentConfig& c, RunOptions&) { c.update_norm_ceiling = -1.0; }},
      {"update_norm_ceiling (--norm-ceiling) must be finite",
       [](ExperimentConfig& c, RunOptions&) {
         c.update_norm_ceiling = std::numeric_limits<double>::quiet_NaN();
       }},
      // ceil(0.4 * 12) = 5 expected cohort members, so 6 shards.
      {"exceeds the expected round cohort",
       [](ExperimentConfig& c, RunOptions&) { c.shards = 6; }},
      {"checkpoint_save_path (--checkpoint) also needs checkpoint_round",
       [](ExperimentConfig&, RunOptions& o) {
         o.checkpoint_save_path = ::testing::TempDir() + "never_written.ckpt";
       }},
      {"checkpoint_every (--checkpoint-every) needs checkpoint_save_path",
       [](ExperimentConfig&, RunOptions& o) { o.checkpoint_every = 2; }},
      {"checkpoint_keep (--checkpoint-keep) must be at least 1",
       [](ExperimentConfig&, RunOptions& o) { o.checkpoint_keep = 0; }},
      {"target_label must match",
       [](ExperimentConfig& c, RunOptions&) { c.trojan_train.target_label = 1; }},
      {"target_label must match",
       [](ExperimentConfig& c, RunOptions&) { c.dpois.target_label = 1; }},
      {"target_label must match",
       [](ExperimentConfig& c, RunOptions&) { c.dba.target_label = 1; }},
      {"t_ms (--async-t-ms) must be finite and non-negative",
       [](ExperimentConfig& c, RunOptions&) {
         c.round_engine = fl::RoundEngineKind::buffered_async;
         c.async.t_ms = -1.0;
       }},
      {"at least one aggregation trigger",
       [](ExperimentConfig& c, RunOptions&) {
         c.round_engine = fl::RoundEngineKind::buffered_async;
         c.async.k = 0;
       }},
  };
  for (const auto& [rule, breaks] : cases) {
    ExperimentConfig cfg = tiny_config();
    cfg.rounds = 2;
    RunOptions options;
    breaks(cfg, options);
    try {
      (void)run_experiment(cfg, options);
      ADD_FAILURE() << "accepted a config that breaks: " << rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
          << "expected '" << rule << "', got '" << e.what() << "'";
    }
  }
}

// Moving every copy of the target label together is a legal config.
TEST(RunnerValidation, AcceptsAgreeingTargetLabels) {
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 2;
  cfg.attack_start_round = 0;
  cfg.target_label = cfg.trojan_train.target_label = cfg.dpois.target_label =
      cfg.dba.target_label = 1;
  EXPECT_NO_THROW((void)run_experiment(cfg));
}

}  // namespace
}  // namespace collapois::sim
