// Campaign benchmark binary: runs one workload's poisoning campaigns and
// prints their metrics, one JSON record per line, the result object
// last.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--threads T] [--work-dir DIR]
//   campaign_bench --self-test
//
// --trace 0 times whole campaigns through sim::run_experiment (the
// end-to-end metrics); --trace 1 alternates untraced campaigns with the
// traced composition (the per-layer metrics and the tracing overhead).
// Both first run the workload's reference campaign for the seed, which
// every later campaign is checked against. --threads overrides the
// workload's pool size, for measuring the pool by hand. Checkpoints and
// span files go under --work-dir (default .bench_build/campaign_bench/work).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "campaign.h"
#include "kernels/cpu_dispatch.h"
#include "runtime/rss.h"
#include "runtime/thread_pool.h"
#include "sim/chaos.h"
#include "trace.h"
#include "traced_campaign.h"

#ifndef COLLAPOIS_BENCH_BUILD_TYPE
#define COLLAPOIS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace campaign_bench;
using collapois::sim::ExperimentResult;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 60;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::optional<std::size_t> threads;
  std::string work_dir = ".bench_build/campaign_bench/work";
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: campaign_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--threads T] [--work-dir DIR]\n"
               "       campaign_bench --self-test\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--threads") {
        // std::stoul would wrap a negative count around.
        if (!value.empty() && value[0] == '-') {
          throw std::invalid_argument(value);
        }
        a.threads = std::stoul(value);
      } else if (flag == "--work-dir") {
        a.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage(flag + ": bad value '" + value + "'");
    }
  }
  if (a.self_test) return a;
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

// --- minimal JSON output ---------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  // 0: a count or ratio, not a sampled timing
};

bool sequential(const Workload& w) {
  return collapois::runtime::resolve_thread_count(w.config.threads) == 1;
}

// The host stamp every record carries: the ISA tier and microkernel the
// kernels dispatched to, the core count, the workload's thread count,
// whether its campaigns rotate over the CPUs, the build type, the
// workload and the seed.
std::string host_stamp(const Workload& w, std::uint64_t seed, int trace) {
  const auto info = collapois::kernels::dispatch_info();
  std::string s = "\"host\":{";
  s += "\"isa_tier\":" +
       json_string(collapois::kernels::isa_tier_name(info.tier));
  s += ",\"microkernel\":" + json_string(info.microkernel);
  s += ",\"isa_forced\":" + std::string(info.forced ? "true" : "false");
  s += ",\"cpu_features\":" +
       json_string(collapois::kernels::cpu_feature_string());
  s += ",\"nproc\":" +
       std::to_string(std::thread::hardware_concurrency());
  s += ",\"threads\":" +
       std::to_string(collapois::runtime::resolve_thread_count(
           w.config.threads));
  s += ",\"cpu_rotation\":" + std::string(sequential(w) ? "true" : "false");
  s += ",\"build_type\":" + json_string(COLLAPOIS_BENCH_BUILD_TYPE);
  s += ",\"compiler\":" + json_string(__VERSION__);
  s += "},\"workload\":" + json_string(w.name);
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"trace\":" + std::to_string(trace);
  return s;
}

void print_metrics_record(const std::string& stamp,
                          const std::vector<Metric>& metrics,
                          std::size_t attempted, std::size_t failed) {
  std::string s = "{\"record\":\"summary\"," + stamp + ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) s += ",";
    s += "{\"name\":" + json_string(m.name) +
         ",\"unit\":" + json_string(m.unit) +
         ",\"value\":" + json_number(m.value);
    if (m.samples > 0) s += ",\"samples\":" + std::to_string(m.samples);
    s += "}";
  }
  s += "],\"attempted\":" + std::to_string(attempted) +
       ",\"failed\":" + std::to_string(failed) + ",\"failed_share\":" +
       json_number(attempted == 0 ? 1.0
                                  : static_cast<double>(failed) /
                                        static_cast<double>(attempted)) +
       "}";
  std::printf("%s\n", s.c_str());
  // The same table for a reader, on stderr.
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %-6s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (m.samples > 0) std::fprintf(stderr, " (n=%zu)", m.samples);
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "  %-32s %14.6g ratio  (%zu of %zu campaigns)\n",
               "failed_share",
               attempted == 0 ? 1.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted),
               failed, attempted);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(metrics[i].name) +
         ": {\"value\": " + json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// --- campaign bookkeeping --------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Counts attempted and failed campaigns and prints one record per
// campaign (its kind, wall time, final-model digest and any failures).
class Ledger {
 public:
  explicit Ledger(std::string stamp) : stamp_(std::move(stamp)) {}

  void record(const std::string& kind, double seconds, std::uint64_t dig,
              const std::vector<std::string>& failures) {
    ++attempted_;
    if (!failures.empty()) ++failed_;
    std::string s = "{\"record\":\"campaign\"," + stamp_ +
                    ",\"kind\":" + json_string(kind) +
                    ",\"seconds\":" + json_number(seconds) +
                    ",\"digest\":\"" + std::to_string(dig) +
                    "\",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) s += ",";
      s += json_string(failures[i]);
      std::fprintf(stderr, "FAILED %s campaign: %s\n", kind.c_str(),
                   failures[i].c_str());
    }
    std::printf("%s]}\n", s.c_str());
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::string stamp_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// Moves a sequential workload's thread to the next allowed CPU before
// each campaign. On a shared 4-vCPU KVM guest a fixed compute loop ran
// up to 1.7x slower on one vCPU than on another for tens of seconds, and
// a lone thread tends to stay on one vCPU for a whole run, so a run would
// time that vCPU rather than the program.
// Rotating spreads each run's campaigns over every CPU it may use. A
// workload with a pool is left to the scheduler: its workers would
// inherit the caller's pinning.
class CoreRotation {
 public:
  explicit CoreRotation(bool sequential) {
    if (!sequential || sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Runs `body`, converting an exception into a failure message.
template <typename Fn>
std::vector<std::string> guarded(Fn&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return {std::string("threw: ") + e.what()};
  }
}

// The workload's reference campaign for this seed; nullopt (and a failed
// record) when it could not run or is itself broken.
std::optional<ExperimentResult> run_reference(const Workload& w,
                                              const std::string& ckpt,
                                              Ledger& ledger,
                                              CoreRotation& rotation) {
  std::optional<ExperimentResult> ref;
  rotation.next();
  const auto t0 = Clock::now();
  auto failures = guarded([&] {
    ref = collapois::sim::run_experiment(reference_config(w),
                                         campaign_options(w, ckpt));
    return check_campaign(w, *ref, *ref);
  });
  ledger.record("reference", seconds_since(t0),
                ref ? digest(ref->final_global) : 0, failures);
  if (!failures.empty()) ref.reset();
  return ref;
}

std::vector<std::string> check_against(
    const Workload& w, const ExperimentResult& r,
    const std::optional<ExperimentResult>& ref) {
  if (!ref) return {"no reference campaign for this seed"};
  return check_campaign(w, r, *ref);
}

// --- trace 0: end-to-end metrics -------------------------------------------

int run_untraced(const Workload& w, const Args& args, const std::string& stamp,
                 const std::string& ckpt) {
  Ledger ledger(stamp);
  CoreRotation rotation(sequential(w));
  const auto ref = run_reference(w, ckpt, ledger, rotation);

  // Set-up: run_experiment halted at the end of round 0 by the public
  // chaos hook (the strike comes later, so no X-training is included).
  // Repeated at least kMinSetups times and until a tenth of the window is
  // spent, so short set-ups get enough samples for a steady median.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (std::size_t k = 0;
       k < kMaxSetups && (k < kMinSetups || setup_total < 0.1 * args.seconds);
       ++k) {
    collapois::sim::RunOptions options = campaign_options(w, ckpt);
    options.crash_round = 0;
    options.crash_phase = collapois::sim::CrashPhase::post_train;
    rotation.next();
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    auto failures = guarded([&]() -> std::vector<std::string> {
      try {
        collapois::sim::run_experiment(w.config, options);
      } catch (const collapois::sim::CrashInjected& halt) {
        elapsed = seconds_since(t0);
        if (halt.round() != 0) return {"set-up halted past round 0"};
        return {};
      }
      return {"set-up run did not halt at round 0"};
    });
    ledger.record("setup", elapsed, 0, failures);
    setup_total += seconds_since(t0);
    if (failures.empty()) setup_s.push_back(elapsed);
  }

  // Measured campaigns, back to back, while the next one is expected to
  // finish inside the --seconds window (always at least one).
  std::vector<double> campaign_s;
  std::vector<double> round_ms;
  std::optional<std::uint64_t> first_digest;
  const auto window = Clock::now();
  double last = 0.0;
  while (campaign_s.empty() ||
         seconds_since(window) + last <= args.seconds) {
    rotation.next();
    const auto t0 = Clock::now();
    std::optional<ExperimentResult> r;
    auto failures = guarded([&] {
      r = collapois::sim::run_experiment(w.config, campaign_options(w, ckpt));
      return check_against(w, *r, ref);
    });
    last = seconds_since(t0);
    const std::uint64_t dig = r ? digest(r->final_global) : 0;
    if (r) {
      // Repeats of one seed must replay the same trajectory.
      if (!first_digest) first_digest = dig;
      if (dig != *first_digest) {
        failures.push_back("final model differs from the first campaign's");
      }
    }
    ledger.record("measured", last, dig, failures);
    if (!r) {
      if (seconds_since(window) > args.seconds) break;
      continue;
    }
    campaign_s.push_back(last);
    for (const auto& rec : r->rounds) round_ms.push_back(rec.wall_ms);
  }

  // A workload whose campaigns all failed still reports (zeros, and
  // "correct": false), so the failure reaches the result.
  const double tail = tail_percentile_rank(round_ms.size());
  const std::vector<Metric> metrics = {
      {"campaign_s", "s", median_or_zero(campaign_s), campaign_s.size()},
      {"setup_s", "s", median_or_zero(setup_s), setup_s.size()},
      {"round_ms_p50", "ms", median_or_zero(round_ms), round_ms.size()},
      {"round_ms_p90", "ms",
       round_ms.empty() ? 0.0 : percentile(round_ms, tail), round_ms.size()},
      {"peak_rss_mib", "MiB",
       static_cast<double>(collapois::runtime::peak_rss_bytes()) /
           (1024.0 * 1024.0),
       0},
  };
  std::fprintf(stderr, "%s seed %llu: round_ms_p90 is the p%.1f of %zu rounds\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               100.0 * tail, round_ms.size());
  print_metrics_record(stamp, metrics, ledger.attempted(), ledger.failed());
  const bool measured = !campaign_s.empty() && !setup_s.empty();
  print_result(measured && ledger.failed() == 0, ledger.attempted(),
               ledger.failed(), metrics);
  return 0;
}

// --- trace 1: per-layer metrics ----------------------------------------------

// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered_ms(std::vector<std::pair<double, double>> iv, double lo,
                  double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

// Per-campaign layer numbers, derived from one traced campaign's spans.
struct LayerSample {
  std::map<std::string, double> totals;  // per-campaign sums and counts
  std::map<std::string, std::vector<double>> durations;  // ms, per span
};

LayerSample layer_sample(const TracedCampaign& tc,
                         const std::vector<Span>& spans) {
  LayerSample s;
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& sp : spans) {
    children[sp.parent].emplace_back(sp.start_ms, sp.end_ms);
    s.durations[sp.name].push_back(sp.duration_ms());
  }
  double top_level_ms = 0.0, round_self_ms = 0.0;
  for (const Span& sp : spans) {
    const std::string name = sp.name;
    if (sp.parent == tc.root_span && name != "net.replay") {
      top_level_ms += sp.duration_ms();
    }
    if (name == "fl.round") {
      round_self_ms += sp.duration_ms() -
                       covered_ms(children[sp.id], sp.start_ms, sp.end_ms);
    }
  }
  const auto total_ms = [&](const char* name) {
    double t = 0.0;
    for (double d : s.durations[name]) t += d;
    return t;
  };
  double dispatch_ms = 0.0;
  for (double d : tc.dispatch_ms) dispatch_ms += d;
  std::size_t dropped = 0, rejected = 0, failovers = 0;
  collapois::net::TransportStats net;
  for (const auto& r : tc.result.rounds) {
    dropped += r.n_dropped;
    rejected += r.n_rejected;
    failovers += r.shard_failovers;
    net.accumulate(r.transport);
  }
  auto& t = s.totals;
  t["core.xtrain_s"] = total_ms("core.xtrain") / 1000.0;
  t["core.xtrain_samples"] = static_cast<double>(tc.xtrain_samples);
  t["runtime.worker_busy_share"] =
      dispatch_ms > 0.0 ? total_ms("nn.client_update") /
                              (dispatch_ms * static_cast<double>(tc.threads))
                        : 0.0;
  t["nn.client_updates"] =
      static_cast<double>(s.durations["nn.client_update"].size());
  t["fl.round_self_ms"] = round_self_ms;
  t["fl.updates_dropped"] = static_cast<double>(dropped);
  t["fl.updates_rejected"] = static_cast<double>(rejected);
  t["defense.rows_aggregated"] = static_cast<double>(tc.rows_aggregated);
  t["net.bytes_fp32"] = static_cast<double>(net.fp32_bytes_sent);
  t["net.bytes_wire"] = static_cast<double>(net.wire_bytes_sent);
  t["net.attempts"] = static_cast<double>(net.msgs_sent);
  t["net.retries"] = static_cast<double>(net.retried);
  t["net.lost"] = static_cast<double>(net.lost);
  t["net.encode_us"] = tc.encode_us;
  t["net.decode_us"] = tc.decode_us;
  t["agg.materialize_ms_total"] = total_ms("agg.materialize");
  t["agg.clients_materialized"] =
      static_cast<double>(tc.clients_materialized);
  t["agg.shard_failovers"] = static_cast<double>(failovers);
  t["metrics.angle_summary_s"] = total_ms("metrics.angle_summary") / 1000.0;
  t["metrics.eval_s"] = total_ms("metrics.eval") / 1000.0;
  t["metrics.distance_s"] = total_ms("metrics.distance") / 1000.0;
  t["data.synth_s"] = total_ms("data.synth") / 1000.0;
  t["data.clients_built"] = static_cast<double>(tc.clients_built);
  t["sim.checkpoint_bytes"] = static_cast<double>(tc.checkpoint_bytes);
  t["sim.checkpoint_saves"] = static_cast<double>(tc.checkpoint_saves);
  t["trace.coverage"] = tc.wall_ms > 0.0 ? top_level_ms / tc.wall_ms : 0.0;
  return s;
}

int run_traced(const Workload& w, const Args& args, const std::string& stamp,
               const std::string& ckpt, const std::string& span_path) {
  Ledger ledger(stamp);
  CoreRotation rotation(sequential(w));
  const auto ref = run_reference(w, ckpt, ledger, rotation);

  Tracer tracer;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<LayerSample> samples;
  std::size_t digest_matches = 0, fidelity_checks = 0;
  const auto window = Clock::now();
  double last = 0.0;
  for (std::uint32_t id = 0;
       id == 0 || seconds_since(window) + last <= args.seconds; ++id) {
    const auto pair_start = Clock::now();
    // Untraced campaign: the overhead baseline and the fidelity witness.
    std::optional<ExperimentResult> product;
    rotation.next();
    auto t0 = Clock::now();
    auto failures = guarded([&] {
      product = collapois::sim::run_experiment(w.config,
                                               campaign_options(w, ckpt));
      return check_against(w, *product, ref);
    });
    const double product_s = seconds_since(t0);
    ledger.record("untraced", product_s,
                  product ? digest(product->final_global) : 0, failures);
    if (product) untraced_ms.push_back(1000.0 * product_s);

    // Traced composition of the same campaign.
    std::optional<TracedCampaign> tc;
    rotation.next();
    t0 = Clock::now();
    failures = guarded([&] {
      tc = run_traced_campaign(w, ckpt, tracer, id);
      return check_against(w, tc->result, ref);
    });
    const std::uint64_t dig = tc ? digest(tc->result.final_global) : 0;
    ledger.record("traced", seconds_since(t0), dig, failures);
    if (tc && product) {
      ++fidelity_checks;
      if (dig == digest(product->final_global)) {
        ++digest_matches;
      } else {
        std::fprintf(stderr,
                     "FIDELITY MISMATCH: the traced composition's final "
                     "model differs from run_experiment's (campaign %u)\n",
                     id);
      }
    }
    if (tc) {
      traced_ms.push_back(tc->wall_ms);
      std::vector<Span> spans;
      for (const Span& sp : tracer.spans()) {
        if (sp.campaign == id) spans.push_back(sp);
      }
      samples.push_back(layer_sample(*tc, spans));
    }
    last = seconds_since(pair_start);
    if (!product && !tc && seconds_since(window) > args.seconds) break;
  }
  if (!tracer.write_jsonl(span_path)) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 span_path.c_str());
  }

  // Totals: the median over the traced campaigns. Span percentiles: over
  // the spans of all of them. A run whose campaigns all failed still
  // reports (zeros, and "correct": false).
  const auto across = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.totals.at(name));
    return median_or_zero(v);
  };
  const auto pooled = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& s : samples) {
      const auto it = s.durations.find(span);
      if (it != s.durations.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    return v;
  };
  std::vector<Metric> metrics;
  const auto add_percentiles = [&](const std::string& prefix,
                                   const std::string& span, bool p90) {
    const auto v = pooled(span);
    metrics.push_back({prefix + "_p50", "ms", median_or_zero(v), v.size()});
    if (p90) {
      metrics.push_back(
          {prefix + "_p90", "ms",
           v.empty() ? 0.0 : percentile(v, tail_percentile_rank(v.size())),
           v.size()});
    }
  };
  const auto add = [&](const std::string& name, const char* unit) {
    metrics.push_back({name, unit, across(name), 0});
  };
  add("core.xtrain_s", "s");
  add("core.xtrain_samples", "count");
  add("runtime.worker_busy_share", "ratio");
  add_percentiles("nn.client_update_ms", "nn.client_update", true);
  add("nn.client_updates", "count");
  add_percentiles("fl.round_ms", "fl.round", true);
  add("fl.round_self_ms", "ms");
  add("fl.updates_dropped", "count");
  add("fl.updates_rejected", "count");
  add_percentiles("defense.aggregate_ms", "defense.aggregate", true);
  add("defense.rows_aggregated", "count");
  add("net.bytes_fp32", "bytes");
  add("net.bytes_wire", "bytes");
  add("net.attempts", "count");
  add("net.retries", "count");
  add("net.lost", "count");
  add("net.encode_us", "us");
  add("net.decode_us", "us");
  add("agg.materialize_ms_total", "ms");
  add("agg.clients_materialized", "count");
  add("agg.shard_failovers", "count");
  add("metrics.angle_summary_s", "s");
  add_percentiles("metrics.angle_summary_ms", "metrics.angle_summary", false);
  add("metrics.eval_s", "s");
  add("metrics.distance_s", "s");
  add("data.synth_s", "s");
  add("data.clients_built", "count");
  add("sim.checkpoint_bytes", "bytes");
  add("sim.checkpoint_saves", "count");
  add("trace.coverage", "ratio");
  const bool measured = !traced_ms.empty() && !untraced_ms.empty();
  metrics.push_back(
      {"trace.overhead_share", "ratio",
       measured ? median(traced_ms) / median(untraced_ms) - 1.0 : 0.0,
       traced_ms.size()});
  metrics.push_back(
      {"trace.digest_match", "ratio",
       fidelity_checks == 0 ? 0.0
                            : static_cast<double>(digest_matches) /
                                  static_cast<double>(fidelity_checks),
       fidelity_checks});

  // The checkpoint save time goes to the summary record only, not to the
  // result: it is exactly 0 on the workloads that never checkpoint.
  std::vector<Metric> report = metrics;
  const auto saves = pooled("sim.checkpoint_save");
  report.push_back({"sim.checkpoint_save_ms_p50", "ms", median_or_zero(saves),
                    saves.size()});
  print_metrics_record(stamp, report, ledger.attempted(), ledger.failed());
  print_result(measured && ledger.failed() == 0, ledger.attempted(),
               ledger.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.self_test) {
    try {
      return self_test() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: self-test: %s\n", e.what());
      return 1;
    }
  }
  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
    if (args.threads) w.config.threads = *args.threads;
  } catch (const std::exception& e) {
    usage(e.what());
  }
  namespace fs = std::filesystem;
  // Per-process checkpoint directory, removed at exit.
  const fs::path ckpt_dir = fs::path(args.work_dir) /
                            ("ckpt-" + w.name + "-" +
                             std::to_string(::getpid()));
  const fs::path span_dir = fs::path(args.work_dir) / "spans";
  std::error_code ec;
  fs::create_directories(ckpt_dir, ec);
  fs::create_directories(span_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }
  const std::string stamp = host_stamp(w, args.seed, args.trace);
  std::printf("{\"record\":\"host\",%s}\n", stamp.c_str());
  const std::string ckpt = (ckpt_dir / "campaign.ckpt").string();
  int rc = 1;
  try {
    rc = args.trace == 0
             ? run_untraced(w, args, stamp, ckpt)
             : run_traced(w, args, stamp, ckpt,
                          (span_dir / (w.name + "-seed" +
                                       std::to_string(args.seed) + ".jsonl"))
                              .string());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(ckpt_dir, ec);
  return rc;
}
