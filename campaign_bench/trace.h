// In-memory span tracer and the decorators that hook it into the
// simulator through its public interfaces.
//
// A span records a name, start and end (ms on the tracer's steady clock),
// its own id, the id of the span that caused it, and the campaign it
// belongs to. Spans are kept in memory and written out once, at exit.
//
// Parenting: a span opened on a thread that already has an open span
// nests under it. A span opened on a worker thread with nothing open
// (client training fanned out by the round engine's pool) nests under the
// innermost span open on the main thread — the round that dispatched it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agg/lazy_federation.h"
#include "agg/lazy_population.h"
#include "fl/aggregator.h"
#include "fl/client.h"

namespace campaign_bench {

struct Span {
  const char* name = "";  // always a string literal
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: top level
  std::uint32_t campaign = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  // The constructing thread is the main thread (see the parenting rule).
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now_ms() const;

  // Spans opened from now on belong to campaign `id`.
  void set_campaign(std::uint32_t id) { campaign_.store(id); }

  // Copy of every closed span, in closing order.
  std::vector<Span> spans() const;

  // One JSON object per line: name, start_ms, end_ms, id, parent, campaign.
  // Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class ScopedSpan;

  std::int64_t open(std::int64_t* saved_parent, std::int64_t* parent);
  void close(const Span& span, std::int64_t saved_parent);

  const std::chrono::steady_clock::time_point t0_;
  const std::thread::id main_thread_;
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::int64_t> main_current_{-1};
  std::atomic<std::uint32_t> campaign_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span: opened at construction, recorded at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::int64_t saved_parent_ = -1;
};

// fl::Client decorator: a "nn.client_update" span around every
// compute_update(); everything else forwards, so trajectories and
// checkpoint bytes are those of the wrapped client.
class TracedClient final : public collapois::fl::Client {
 public:
  TracedClient(std::unique_ptr<collapois::fl::Client> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t id() const override { return inner_->id(); }
  bool is_compromised() const override { return inner_->is_compromised(); }
  std::uint32_t codec_capabilities() const override {
    return inner_->codec_capabilities();
  }
  collapois::fl::ClientUpdate compute_update(
      const collapois::fl::RoundContext& ctx) override {
    ScopedSpan span(tracer_, "nn.client_update");
    return inner_->compute_update(ctx);
  }
  collapois::tensor::FlatVec eval_params(
      std::span<const float> global) override {
    return inner_->eval_params(global);
  }
  void distill_round(collapois::nn::Model& personal,
                     collapois::nn::Model& teacher) override {
    inner_->distill_round(personal, teacher);
  }
  void save_state(collapois::fl::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void load_state(collapois::fl::StateReader& r) override {
    inner_->load_state(r);
  }

 private:
  std::unique_ptr<collapois::fl::Client> inner_;
  Tracer& tracer_;
};

// fl::Aggregator decorator: a "defense.aggregate" span and a row count
// around every aggregate(); every other hook (sharding protocols, infra
// counters, post-update, checkpoint state, name) forwards unchanged.
class TracedAggregator final : public collapois::fl::Aggregator {
 public:
  TracedAggregator(std::unique_ptr<collapois::fl::Aggregator> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t rows_aggregated() const { return rows_; }

  collapois::fl::ShardCapability shard_capability() const override {
    return inner_->shard_capability();
  }
  std::unique_ptr<collapois::fl::ShardStream> stream_begin(
      std::size_t dim) override {
    return inner_->stream_begin(dim);
  }
  void stream_absorb(collapois::fl::ShardStream& stream,
                     const std::vector<collapois::fl::ClientUpdate>& updates,
                     std::size_t row_begin, std::size_t row_end,
                     std::span<const float> global,
                     collapois::runtime::ThreadPool* pool) override {
    inner_->stream_absorb(stream, updates, row_begin, row_end, global, pool);
  }
  collapois::tensor::FlatVec stream_finish(
      collapois::fl::ShardStream& stream,
      std::span<const float> global) override {
    return inner_->stream_finish(stream, global);
  }
  void aggregate_columns(const std::vector<collapois::fl::ClientUpdate>& updates,
                         std::span<const float> global, std::size_t col_begin,
                         std::size_t col_end, float* out,
                         collapois::runtime::ThreadPool* pool) override {
    inner_->aggregate_columns(updates, global, col_begin, col_end, out, pool);
  }
  void begin_round(std::size_t round) override { inner_->begin_round(round); }
  collapois::fl::InfraStats take_infra_stats() override {
    return inner_->take_infra_stats();
  }
  void post_update(collapois::tensor::FlatVec& params) override {
    inner_->post_update(params);
  }
  void save_state(collapois::fl::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void load_state(collapois::fl::StateReader& r) override {
    inner_->load_state(r);
  }
  std::string name() const override { return inner_->name(); }

 protected:
  collapois::tensor::FlatVec do_aggregate(
      const std::vector<collapois::fl::ClientUpdate>& updates,
      std::span<const float> global,
      collapois::runtime::ThreadPool* pool) override {
    ScopedSpan span(tracer_, "defense.aggregate");
    rows_ += updates.size();
    return inner_->aggregate(updates, global, pool);
  }

 private:
  std::unique_ptr<collapois::fl::Aggregator> inner_;
  Tracer& tracer_;
  std::size_t rows_ = 0;  // aggregate() runs on the engine thread only
};

// agg::LazyClientPopulation factory decorator: an "agg.materialize" span
// around every client the population builds on first sample.
collapois::agg::LazyClientPopulation::Factory traced_materialization(
    collapois::agg::LazyClientPopulation::Factory inner, Tracer& tracer);

// agg::LazyFederation split-factory decorator: a "data.synth" span around
// every client split generated on demand.
collapois::agg::LazyFederation::SplitFactory traced_synthesis(
    collapois::agg::LazyFederation::SplitFactory inner, Tracer& tracer);

}  // namespace campaign_bench
