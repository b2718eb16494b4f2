// Codec bandwidth — bytes-on-wire and model quality per update codec,
// plus the SIMD encode/decode tier gate (DESIGN.md §15).
//
// Sweeps codec {identity, fp16, int8, topk} x engine {sync,
// buffered_async} on a CollaPois FEMNIST-like (LeNet-style) workload over
// a zero-fault zero-latency transport and reports, per cell: fp32 vs
// encoded bytes-on-wire, the realized compression ratio, Benign AC and
// CollaPois Attack SR. The campaign lands in BENCH_codec_bandwidth.json
// (working directory), each cell stamped with the dispatch tier it ran
// under.
//
// Four gates, all fatal (exit 1):
//   1. identity over the zero-fault wire is element-exact equal to the
//      transport-disabled run — on BOTH engines (the codec layer must not
//      perturb the pre-codec exactness guarantee);
//   2. int8 reduces bytes-on-wire by >= 3.5x on the LeNet update;
//   3. topk (10%) reduces bytes-on-wire by >= 8x;
//   4. every available SIMD tier's encode+decode on a LeNet-sized delta
//      is never slower than scalar — interleaved best-of-5, with a 10%
//      noise allowance (the tiers are bit-identical, so this is purely a
//      latency gate).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <random>
#include <vector>

#include "bench_common.h"
#include "kernels/cpu_dispatch.h"
#include "net/codec.h"

namespace {

using namespace collapois;

const std::vector<net::CodecKind>& codec_kinds() {
  static const std::vector<net::CodecKind> k = {
      net::CodecKind::identity, net::CodecKind::fp16, net::CodecKind::int8,
      net::CodecKind::topk};
  return k;
}

const std::vector<fl::RoundEngineKind>& engines() {
  static const std::vector<fl::RoundEngineKind> e = {
      fl::RoundEngineKind::sync, fl::RoundEngineKind::buffered_async};
  return e;
}

sim::ExperimentConfig workload(fl::RoundEngineKind engine,
                               net::CodecKind codec) {
  sim::ExperimentConfig cfg = bench::base_config(sim::DatasetKind::femnist_like);
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = bench::paper_fraction("1%");
  cfg.n_clients = 16 * bench::scale();
  cfg.rounds = 10 * bench::scale();
  cfg.sample_prob = 0.5;
  cfg.attack_start_round = 3;
  cfg.round_engine = engine;
  // Zero-fault, zero-latency wire: every update crosses the codec path
  // but nothing is lost or reordered, so the identity cells must be
  // element-exact equal to the transport-disabled baseline.
  cfg.net.enabled = true;
  cfg.net.latency_min_ms = 0.0;
  cfg.net.latency_max_ms = 0.0;
  cfg.codec.kind = codec;
  return cfg;
}

struct Cell {
  net::CodecKind codec = net::CodecKind::identity;
  fl::RoundEngineKind engine = fl::RoundEngineKind::sync;
  std::size_t fp32_bytes = 0;
  std::size_t wire_bytes = 0;
  double ratio = 1.0;
  double benign_ac = 0.0;
  double attack_sr = 0.0;
  bool bit_exact_vs_disabled = true;  // meaningful for identity cells only
};

using CellKey = std::pair<int, int>;  // (codec, engine) as ints for ordering

std::map<CellKey, Cell>& cells() {
  static std::map<CellKey, Cell> c;
  return c;
}

std::size_t& model_dim() {
  static std::size_t d = 0;
  return d;
}

void run_cell(benchmark::State& state, net::CodecKind codec,
              fl::RoundEngineKind engine) {
  const sim::ExperimentConfig cfg = workload(engine, codec);
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    Cell c;
    c.codec = codec;
    c.engine = engine;
    for (const auto& rec : r.rounds) {
      c.fp32_bytes += rec.transport.fp32_bytes_sent;
      c.wire_bytes += rec.transport.wire_bytes_sent;
    }
    c.ratio = c.wire_bytes > 0 ? static_cast<double>(c.fp32_bytes) /
                                     static_cast<double>(c.wire_bytes)
                               : 1.0;
    c.benign_ac = r.population.benign_ac;
    c.attack_sr = r.population.attack_sr;
    if (codec == net::CodecKind::identity) {
      // Gate 1: the codec-disabled run must be element-exact identical.
      sim::ExperimentConfig disabled = cfg;
      disabled.net.enabled = false;
      const sim::ExperimentResult base = sim::run_experiment(disabled);
      c.bit_exact_vs_disabled = r.final_global == base.final_global;
    }
    model_dim() = r.final_global.size();
    cells()[{static_cast<int>(codec), static_cast<int>(engine)}] = c;
    state.counters["compression_ratio"] = c.ratio;
    state.counters["wire_bytes"] = static_cast<double>(c.wire_bytes);
    bench::report_counters(state, r);
  }
}

void register_all() {
  for (const auto codec : codec_kinds()) {
    for (const auto engine : engines()) {
      const std::string name = std::string("codec_bandwidth/codec:") +
                               net::codec_kind_name(codec) +
                               "/engine:" + fl::round_engine_name(engine);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [codec, engine](benchmark::State& s) { run_cell(s, codec, engine); })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
}

// --- SIMD tier gate -----------------------------------------------------

// One encode+decode pass over a LeNet-sized delta through every lossy
// codec (identity is a memcpy either way — no tier-sensitive work).
double encode_decode_pass_ms(std::span<const float> delta) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto kind : {net::CodecKind::fp16, net::CodecKind::int8,
                          net::CodecKind::topk}) {
    net::CodecConfig cfg;
    cfg.kind = kind;
    fl::StateWriter w;
    net::encode_delta(w, delta, cfg);
    const std::vector<std::uint8_t> bytes = w.take();
    fl::StateReader r(bytes);
    const tensor::FlatVec back = net::decode_delta(r, cfg);
    benchmark::DoNotOptimize(back.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct TierTiming {
  kernels::IsaTier tier = kernels::IsaTier::scalar;
  double best_ms = 0.0;
  double vs_scalar = 1.0;  // scalar_best / this_best (>= 1 is a win)
};

// Interleaved best-of-5: each rep times every tier back to back, so a
// frequency or scheduler shift hits all tiers alike; the per-tier minimum
// is the comparison point.
std::vector<TierTiming> time_tiers(std::size_t dim) {
  std::mt19937 gen(4242);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  tensor::FlatVec delta(dim == 0 ? 16384 : dim);
  for (auto& x : delta) x = unit(gen);

  const std::vector<kernels::IsaTier> tiers = kernels::available_tiers();
  const kernels::IsaTier entry = kernels::active_tier();
  std::map<kernels::IsaTier, double> best;
  constexpr int kReps = 5;
  constexpr int kPassesPerRep = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto tier : tiers) {
      kernels::set_active_tier(tier);
      double ms = 0.0;
      for (int p = 0; p < kPassesPerRep; ++p) ms += encode_decode_pass_ms(delta);
      const auto it = best.find(tier);
      if (it == best.end() || ms < it->second) best[tier] = ms;
    }
  }
  kernels::set_active_tier(entry);

  std::vector<TierTiming> out;
  const double scalar_best = best[kernels::IsaTier::scalar];
  for (const auto tier : tiers) {
    TierTiming t;
    t.tier = tier;
    t.best_ms = best[tier];
    t.vs_scalar = t.best_ms > 0.0 ? scalar_best / t.best_ms : 1.0;
    out.push_back(t);
  }
  return out;
}

// --- finalize -----------------------------------------------------------

void finalize() {
  auto& cs = cells();
  if (cs.empty()) return;

  std::cout << "== Codec bandwidth — CollaPois FEMNIST-like, zero-fault "
               "wire ==\n";
  std::cout << std::right << std::setw(10) << "codec" << std::setw(16)
            << "engine" << std::setw(14) << "fp32_bytes" << std::setw(14)
            << "wire_bytes" << std::setw(8) << "ratio" << std::setw(12)
            << "benign_ac" << std::setw(12) << "attack_sr" << "\n";
  for (const auto& [key, c] : cs) {
    std::cout << std::right << std::setw(10) << net::codec_kind_name(c.codec)
              << std::setw(16) << fl::round_engine_name(c.engine)
              << std::setw(14) << c.fp32_bytes << std::setw(14) << c.wire_bytes
              << std::fixed << std::setprecision(2) << std::setw(8) << c.ratio
              << std::setprecision(4) << std::setw(12) << c.benign_ac
              << std::setw(12) << c.attack_sr << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  bool ok = true;
  const auto fail = [&ok](const std::string& msg) {
    std::cout << "GATE FAILED: " << msg << "\n";
    ok = false;
  };

  // Gate 1: identity exactness on both engines.
  for (const auto engine : engines()) {
    const auto it = cs.find({static_cast<int>(net::CodecKind::identity),
                             static_cast<int>(engine)});
    if (it == cs.end() || !it->second.bit_exact_vs_disabled) {
      fail(std::string("identity over the zero-fault wire is not bit-exact "
                       "vs codec-disabled under ") +
           fl::round_engine_name(engine));
    }
  }
  // Gates 2-3: compression floors on the sync cells.
  const auto ratio_of = [&cs](net::CodecKind kind) {
    const auto it = cs.find({static_cast<int>(kind),
                             static_cast<int>(fl::RoundEngineKind::sync)});
    return it != cs.end() ? it->second.ratio : 0.0;
  };
  if (ratio_of(net::CodecKind::int8) < 3.5) {
    fail("int8 bytes-on-wire reduction below 3.5x");
  }
  if (ratio_of(net::CodecKind::topk) < 8.0) {
    fail("topk(10%) bytes-on-wire reduction below 8x");
  }

  // Gate 4: SIMD tiers never slower than scalar (10% noise allowance).
  const std::vector<TierTiming> timings = time_tiers(model_dim());
  const double scalar_best = timings.front().best_ms;
  std::cout << "simd encode+decode (LeNet-sized delta, interleaved "
               "best-of-5):\n";
  for (const auto& t : timings) {
    std::cout << "  " << std::left << std::setw(8)
              << kernels::isa_tier_name(t.tier) << std::right << std::fixed
              << std::setprecision(3) << t.best_ms << " ms  ("
              << std::setprecision(2) << t.vs_scalar << "x vs scalar)\n";
    std::cout.unsetf(std::ios::fixed);
    if (t.best_ms > scalar_best * 1.10) {
      fail(std::string("tier ") + kernels::isa_tier_name(t.tier) +
           " encode+decode slower than scalar");
    }
  }

  std::ofstream out("BENCH_codec_bandwidth.json");
  out << "{\"bench\": \"codec_bandwidth\",\n"
      << " \"model_dim\": " << model_dim() << ",\n"
      << " \"isa_tier\": \""
      << kernels::isa_tier_name(kernels::active_tier()) << "\",\n"
      << " \"gates_passed\": " << (ok ? "true" : "false") << ",\n"
      << " \"cells\": [";
  bool first = true;
  for (const auto& [key, c] : cs) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"codec\": \"" << net::codec_kind_name(c.codec)
        << "\", \"engine\": \"" << fl::round_engine_name(c.engine)
        << "\", \"tier\": \""
        << kernels::isa_tier_name(kernels::active_tier())
        << "\", \"fp32_bytes\": " << c.fp32_bytes
        << ", \"wire_bytes\": " << c.wire_bytes
        << ", \"compression_ratio\": " << c.ratio
        << ", \"benign_ac\": " << c.benign_ac
        << ", \"attack_sr\": " << c.attack_sr;
    if (c.codec == net::CodecKind::identity) {
      out << ", \"bit_exact_vs_disabled\": "
          << (c.bit_exact_vs_disabled ? "true" : "false");
    }
    out << "}";
  }
  out << "\n ],\n \"simd\": [";
  first = true;
  for (const auto& t : timings) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"tier\": \"" << kernels::isa_tier_name(t.tier)
        << "\", \"best_ms\": " << t.best_ms
        << ", \"speedup_vs_scalar\": " << t.vs_scalar << "}";
  }
  out << "\n ]}\n";
  if (!ok) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  finalize();
  benchmark::Shutdown();
  return 0;
}
