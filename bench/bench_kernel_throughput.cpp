// Kernel throughput — naive vs blocked GFLOP/s per dispatch tier.
//
// Sweeps every GEMM and Conv2d shape that the simulator's two
// architectures (LeNet-small on 16x16 FEMNIST-like images, the MLP head
// on 32-d sentiment embeddings) actually execute, at the training batch
// size, plus one channel-richer conv at CIFAR-like scale, and times
// forward + backward of each. The naive set is measured once (it has no
// dispatch); the blocked set is measured once per ISA tier the host can
// run (cpu_dispatch.h), re-pinned with set_active_tier between runs —
// unless COLLAPOIS_FORCE_ISA pins a single tier, in which case only that
// tier is measured and the bench fails loudly if the dispatcher's active
// tier disagrees with the forced name. All variants of a shape take their
// best-of-5 timing windows interleaved, so a contention burst on the
// runner costs every variant one discarded window instead of distorting
// one variant's whole measurement (and with it the gate ratios).
//
// The bench is also a gate (exit 1), always like-for-like tiers:
//   - blocked@scalar must not be slower than naive on any shape where the
//     two sets run different code (both are baseline-ISA code, so this is
//     the pure algorithmic never-slower). Shapes the small-problem routing
//     sends through the naive loops on both sides
//     (kernels::blocked_routes_to_naive) are printed but not judged: their
//     ratio is timing noise;
//   - every higher tier must not be slower than blocked@scalar on any
//     shape (vector paths must never lose to the portable ones);
//   - when the avx2 tier is measured, its best speedup over
//     blocked@scalar across the conv shapes must reach 1.5x. The LeNet
//     convs are lowering-bound (cin of 1 and 4 give 9- and 36-deep
//     reductions; im2col/col2im traffic is tier-neutral), so the
//     microkernel-bound cifar-scale conv is where the vector win must
//     show — per-shape numbers for all convs land in the JSON either way.
//
// Results land in BENCH_kernel_throughput.json with the detected CPU
// features and the tier each measurement ran on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "stats/rng.h"

namespace {

using namespace collapois;
using Clock = std::chrono::steady_clock;

// One bench shape: either a Conv2d layer (conv true, geometry in `conv`)
// or a Dense layer expressed as its forward GEMM [m x k] * [n x k]^T.
struct ZooShape {
  std::string name;
  bool is_conv = false;
  kernels::Conv2dShape conv;
  std::size_t m = 0, k = 0, n = 0;
};

// Shapes of nn/zoo.cpp at the default training batch size (16), plus
// "cifar/conv": a cin=8 -> cout=16 3x3 layer on 16x16 maps. The zoo's
// LeNet convs have 1 and 4 input channels, so their lowered GEMMs are
// 9 and 36 deep and the pass is dominated by tier-neutral im2col/col2im
// traffic; the CIFAR-scale layer (the paper's other benchmark family)
// has a 72-deep reduction over 4096 columns, which is what the packed
// microkernel path actually sees on non-toy models.
const std::vector<ZooShape>& zoo_shapes() {
  static const std::vector<ZooShape> s = {
      {"lenet/conv1", true, {16, 1, 16, 16, 4, 3, 1, 16, 16}, 0, 0, 0},
      {"lenet/conv2", true, {16, 4, 8, 8, 8, 3, 1, 8, 8}, 0, 0, 0},
      {"cifar/conv", true, {16, 8, 16, 16, 16, 3, 1, 16, 16}, 0, 0, 0},
      {"lenet/fc1", false, {}, 16, 128, 32},
      {"lenet/fc2", false, {}, 16, 32, 10},
      {"mlp/fc1", false, {}, 16, 32, 32},
      {"mlp/fc2", false, {}, 16, 32, 2},
  };
  return s;
}

// Forward + backward FLOPs of one shape (multiply+add counted as 2).
double shape_flops(const ZooShape& z) {
  if (z.is_conv) {
    const auto& c = z.conv;
    const double macs = static_cast<double>(c.batch) * c.cout * c.oh * c.ow *
                        c.cin * c.k * c.k;
    // forward (out) + backward (grad_weights and grad_input).
    return 2.0 * macs * 3.0;
  }
  const double macs = static_cast<double>(z.m) * z.k * z.n;
  // forward GEMM + the two backward GEMMs (dW, dX).
  return 2.0 * macs * 3.0;
}

struct Measurement {
  double gflops = 0.0;
  double us_per_pass = 0.0;
};

// (shape name, variant) -> measurement. Variants: "naive" plus one
// "blocked@<tier>" per measured tier.
std::map<std::pair<std::string, std::string>, Measurement>& results() {
  static std::map<std::pair<std::string, std::string>, Measurement> r;
  return r;
}

const char* kForceEnv = "COLLAPOIS_FORCE_ISA";

// The tiers the blocked set is measured on: the forced tier alone when
// COLLAPOIS_FORCE_ISA is set, else every tier the CPU can run.
const std::vector<kernels::IsaTier>& tiers_to_measure() {
  static const std::vector<kernels::IsaTier> tiers =
      std::getenv(kForceEnv) != nullptr
          ? std::vector<kernels::IsaTier>{kernels::active_tier()}
          : kernels::available_tiers();
  return tiers;
}

// Loud-failure check for the forced-ISA path: the dispatcher already
// throws when the forced tier exceeds the CPU, but the bench's whole
// point is pinning, so a silent fallback (or a stale binary that ignores
// the env) must not produce a plausible-looking artifact.
void check_forced_isa_honored() {
  const char* forced = std::getenv(kForceEnv);
  if (forced == nullptr) return;
  kernels::IsaTier want;
  try {
    want = kernels::parse_isa_tier(forced);
  } catch (const std::exception& e) {
    std::cerr << "FATAL: " << kForceEnv << "=" << forced << ": " << e.what()
              << "\n";
    std::exit(2);
  }
  const auto got = kernels::active_tier();
  if (want != got) {
    std::cerr << "FATAL: " << kForceEnv << "=" << forced
              << " but the dispatcher selected tier '"
              << kernels::isa_tier_name(got) << "'\n";
    std::exit(2);
  }
}

struct ShapeBuffers {
  std::vector<float> in, weights, bias, out, go, gw, gb, gi;
};

ShapeBuffers make_buffers(const ZooShape& z, stats::Rng& rng) {
  ShapeBuffers b;
  auto fill = [&](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
  };
  if (z.is_conv) {
    const auto& c = z.conv;
    fill(b.in, c.batch * c.cin * c.h * c.w);
    fill(b.weights, c.cout * c.cin * c.k * c.k);
    fill(b.bias, c.cout);
    fill(b.go, c.batch * c.cout * c.oh * c.ow);
    b.out.resize(b.go.size());
    b.gw.assign(b.weights.size(), 0.0f);
    b.gb.assign(b.bias.size(), 0.0f);
    b.gi.assign(b.in.size(), 0.0f);
  } else {
    fill(b.in, z.m * z.k);       // activations [m x k]
    fill(b.weights, z.n * z.k);  // dense W [n x k]
    fill(b.bias, z.n);
    fill(b.go, z.m * z.n);
    b.out.resize(z.m * z.n);
    b.gw.assign(b.weights.size(), 0.0f);
    b.gb.assign(b.bias.size(), 0.0f);
    b.gi.assign(z.m * z.k, 0.0f);
  }
  return b;
}

// One forward + backward pass of the shape under the given kernel set.
void one_pass(const ZooShape& z, const kernels::KernelOps& ops,
              ShapeBuffers& b) {
  if (z.is_conv) {
    ops.conv2d_forward(z.conv, b.in.data(), b.weights.data(), b.bias.data(),
                       b.out.data());
    std::fill(b.gi.begin(), b.gi.end(), 0.0f);
    ops.conv2d_backward(z.conv, b.in.data(), b.weights.data(), b.go.data(),
                        b.gw.data(), b.gb.data(), b.gi.data());
  } else {
    std::fill(b.out.begin(), b.out.end(), 0.0f);
    ops.gemm_a_bt_accum(b.in.data(), b.weights.data(), b.out.data(), z.m, z.k,
                        z.n, b.bias.data(), nullptr);
    ops.gemm_at_b_accum(b.go.data(), b.in.data(), b.gw.data(), z.m, z.n, z.k,
                        b.gb.data());
    ops.gemm(b.go.data(), b.weights.data(), b.gi.data(), z.m, z.n, z.k,
             nullptr);
  }
}

// One timed variant of a shape: the naive set (no dispatch) or the
// blocked set pinned to one ISA tier.
struct VariantSpec {
  std::string name;
  kernels::KernelKind kind;
  bool set_tier = false;
  kernels::IsaTier tier = kernels::IsaTier::scalar;
};

std::vector<VariantSpec> variants_of_shape() {
  std::vector<VariantSpec> v;
  v.push_back({"naive", kernels::KernelKind::naive});
  for (const auto tier : tiers_to_measure()) {
    v.push_back({std::string("blocked@") + kernels::isa_tier_name(tier),
                 kernels::KernelKind::blocked, true, tier});
  }
  return v;
}

// Measures every variant of one shape with best-of-5 timing windows that
// are INTERLEAVED across the variants: window w of every variant runs
// before window w+1 of any of them. The gates below are ratios between
// variants, and a contended runner's noise bursts last longer than one
// 50 ms window — interleaving spreads a burst over one window of each
// variant (where the per-variant min discards it) instead of letting it
// swallow a single variant's entire measurement and fake a regression.
void run_shape_all(benchmark::State& state, const ZooShape& z) {
  const std::vector<VariantSpec> variants = variants_of_shape();
  stats::Rng rng(2024);
  ShapeBuffers b = make_buffers(z, rng);
  const double flops = shape_flops(z);
  for (auto _ : state) {
    std::vector<std::size_t> reps(variants.size(), 8);
    std::vector<double> best_s(variants.size(), 0.0);
    // Per-variant calibration (tiers differ ~10x in speed, so rep counts
    // must too): warm the scratch workspace, then grow reps until one
    // window reaches 50 ms. The calibration window doubles as window 0.
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& ops = kernels::ops_for(variants[v].kind);
      if (variants[v].set_tier) kernels::set_active_tier(variants[v].tier);
      one_pass(z, ops, b);
      for (;;) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < reps[v]; ++i) one_pass(z, ops, b);
        best_s[v] =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (best_s[v] >= 0.05 || reps[v] >= (1u << 20)) break;
        reps[v] *= 4;
      }
    }
    // Four more windows per variant, interleaved; keep each min.
    for (int w = 1; w < 5; ++w) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        const auto& ops = kernels::ops_for(variants[v].kind);
        if (variants[v].set_tier) kernels::set_active_tier(variants[v].tier);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < reps[v]; ++i) one_pass(z, ops, b);
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        best_s[v] = std::min(best_s[v], s);
      }
    }
    benchmark::DoNotOptimize(b.out.data());
    benchmark::DoNotOptimize(b.gi.data());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      Measurement m;
      m.gflops = flops * static_cast<double>(reps[v]) / best_s[v] / 1e9;
      m.us_per_pass = best_s[v] / static_cast<double>(reps[v]) * 1e6;
      results()[{z.name, variants[v].name}] = m;
    }
  }
  // Leave the dispatcher where an unforced process would run: the highest
  // measured tier (the forced tier when pinned).
  kernels::set_active_tier(tiers_to_measure().back());
}

void register_all() {
  for (const auto& z : zoo_shapes()) {
    const std::string name = "kernel_throughput/" + z.name;
    benchmark::RegisterBenchmark(
        name.c_str(), [&z](benchmark::State& s) { run_shape_all(s, z); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

std::string variant_of(kernels::IsaTier tier) {
  return std::string("blocked@") + kernels::isa_tier_name(tier);
}

void finalize() {
  const auto& res = results();
  if (res.empty()) return;
  const auto& tiers = tiers_to_measure();
  const bool forced = std::getenv(kForceEnv) != nullptr;
  const bool multi_tier = tiers.size() > 1;  // scalar baseline available
  const bool have_avx2 =
      multi_tier && tiers.back() == kernels::IsaTier::avx2;

  std::cout << "== Kernel throughput — GFLOP/s per kernel set and ISA tier, "
               "forward+backward ==\n";
  std::cout << "cpu: " << kernels::cpu_feature_string()
            << "  detected=" << kernels::isa_tier_name(kernels::detected_tier())
            << (forced ? "  FORCED=" : "")
            << (forced ? kernels::isa_tier_name(tiers.front()) : "") << "\n";
  std::cout << std::right << std::setw(14) << "shape" << std::setw(10)
            << "naive";
  for (const auto t : tiers) {
    std::cout << std::setw(16) << variant_of(t);
  }
  std::cout << std::setw(12) << (multi_tier ? "top/scalar" : "top/naive")
            << "\n";

  // Gate state. All comparisons are like-for-like: scalar tier vs naive
  // (same ISA, 3% tolerance — the algorithmic win is 1.3-6x, so any trip
  // is real; judged only where the algorithms differ) and higher tiers
  // vs the scalar tier (same algorithm, 10% tolerance: small-problem
  // shapes like mlp/fc2 route every tier through the identical shared
  // loops, so their ratio measures nothing but the host's timing noise
  // floor, which on shared CI runners exceeds 3% even for
  // best-of-interleaved-windows; a vector path that actually breaks
  // loses far more than 10% on the microkernel-bound shapes).
  bool scalar_never_slower = true;  // blocked@<lowest measured> vs naive
  bool tiers_never_slower = true;   // each higher tier vs blocked@scalar
  double best_conv_avx2_speedup = 0.0;

  std::string json;
  for (const auto& z : zoo_shapes()) {
    const auto naive = res.find({z.name, "naive"});
    if (naive == res.end()) continue;
    const auto base = res.find({z.name, variant_of(tiers.front())});
    if (base == res.end()) continue;
    // Dense shapes run three GEMMs with the same m*k*n, so the forward
    // GEMM's routing decides for the whole pass; convs always lower.
    const bool same_code =
        !z.is_conv && kernels::blocked_routes_to_naive(z.m, z.k, z.n);
    if (!same_code && base->second.gflops < 0.97 * naive->second.gflops) {
      scalar_never_slower = false;
    }
    std::cout << std::right << std::setw(14) << z.name << std::fixed
              << std::setprecision(2) << std::setw(10)
              << naive->second.gflops;
    std::string tier_json;
    double top_gflops = base->second.gflops;
    for (const auto t : tiers) {
      const auto it = res.find({z.name, variant_of(t)});
      if (it == res.end()) continue;
      std::cout << std::setw(16) << it->second.gflops;
      if (t != tiers.front() &&
          it->second.gflops < 0.90 * base->second.gflops) {
        tiers_never_slower = false;
      }
      top_gflops = it->second.gflops;
      if (!tier_json.empty()) tier_json += ", ";
      tier_json += std::string("\"") + kernels::isa_tier_name(t) +
                   "\": {\"gflops\": " + std::to_string(it->second.gflops) +
                   ", \"us_per_pass\": " +
                   std::to_string(it->second.us_per_pass) + "}";
      if (z.is_conv && have_avx2 && t == kernels::IsaTier::avx2) {
        best_conv_avx2_speedup =
            std::max(best_conv_avx2_speedup,
                     it->second.gflops / base->second.gflops);
      }
    }
    const double top_ratio =
        top_gflops /
        (multi_tier ? base->second.gflops : naive->second.gflops);
    std::cout << std::setw(12) << top_ratio << "\n";
    std::cout.unsetf(std::ios::fixed);
    if (!json.empty()) json += ",";
    json += "\n  {\"shape\": \"" + z.name + "\"";
    json += std::string(", \"is_conv\": ") + (z.is_conv ? "true" : "false");
    json += ", \"flops_per_pass\": " + std::to_string(shape_flops(z));
    json += ", \"naive_gflops\": " + std::to_string(naive->second.gflops);
    json += ", \"blocked\": {" + tier_json + "}}";
  }

  // The gate only judges cells that ran: a --benchmark_filter that
  // skipped every conv shape leaves the best speedup at 0.0 and must not
  // fail a run that never measured what the gate is about.
  const bool conv_gate_applies =
      have_avx2 && !forced && best_conv_avx2_speedup > 0.0;
  const bool conv_speedup_ok =
      !conv_gate_applies || best_conv_avx2_speedup >= 1.5;
  std::cout << "blocked_never_slower="
            << (scalar_never_slower ? "yes" : "NO — BLOCKED REGRESSED")
            << "\n";
  if (multi_tier) {
    std::cout << "tiers_never_slower="
              << (tiers_never_slower ? "yes" : "NO — A TIER REGRESSED")
              << "\n";
  }
  if (conv_gate_applies) {
    std::cout << "avx2_conv_best_speedup=" << std::fixed
              << std::setprecision(2) << best_conv_avx2_speedup
              << (conv_speedup_ok ? " (>= 1.5 ok)" : " — BELOW 1.5x GATE")
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  std::string tier_list;
  for (const auto t : tiers) {
    if (!tier_list.empty()) tier_list += ", ";
    tier_list += std::string("\"") + kernels::isa_tier_name(t) + "\"";
  }
  const auto info = kernels::dispatch_info();
  std::ofstream out("BENCH_kernel_throughput.json");
  out << "{\"bench\": \"kernel_throughput\",\n"
      << " \"workload\": \"zoo shapes + cifar-scale conv, batch=16, "
         "forward+backward\",\n"
      << " \"cpu_features\": \"" << kernels::cpu_feature_string() << "\",\n"
      << " \"detected_tier\": \""
      << kernels::isa_tier_name(kernels::detected_tier()) << "\",\n"
      << " \"forced_tier\": "
      << (forced ? std::string("\"") +
                       kernels::isa_tier_name(tiers.front()) + "\""
                 : std::string("null"))
      << ",\n"
      << " \"microkernel\": \"" << info.microkernel << "\",\n"
      << " \"tiers_measured\": [" << tier_list << "],\n"
      << " \"blocked_never_slower\": "
      << (scalar_never_slower ? "true" : "false") << ",\n"
      << " \"tiers_never_slower\": " << (tiers_never_slower ? "true" : "false")
      << ",\n"
      << " \"avx2_conv_best_speedup\": "
      << (have_avx2 ? std::to_string(best_conv_avx2_speedup) : "null") << ",\n"
      << " \"points\": [" << json << "\n]}\n";
  // std::exit skips local destructors; close explicitly or a failing gate
  // truncates the very artifact needed to diagnose it.
  out.close();
  if (!scalar_never_slower || !tiers_never_slower || !conv_speedup_ok) {
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  check_forced_isa_honored();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  finalize();
  benchmark::Shutdown();
  return 0;
}
