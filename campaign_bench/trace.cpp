#include "trace.h"

#include <cstdio>

namespace campaign_bench {

namespace {

// Innermost span open on this thread (-1: none).
thread_local std::int64_t tl_current = -1;

}  // namespace

Tracer::Tracer()
    : t0_(std::chrono::steady_clock::now()),
      main_thread_(std::this_thread::get_id()) {}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t Tracer::open(std::int64_t* saved_parent, std::int64_t* parent) {
  const std::int64_t id = next_id_.fetch_add(1);
  *saved_parent = tl_current;
  *parent = tl_current != -1 ? tl_current : main_current_.load();
  tl_current = id;
  if (std::this_thread::get_id() == main_thread_) main_current_.store(id);
  return id;
}

void Tracer::close(const Span& span, std::int64_t saved_parent) {
  tl_current = saved_parent;
  if (std::this_thread::get_id() == main_thread_) {
    main_current_.store(saved_parent);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"id\":%lld,\"parent\":%lld,\"campaign\":%u}\n",
                 s.name, s.start_ms, s.end_ms, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.campaign);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer) {
  span_.name = name;
  span_.campaign = tracer.campaign_.load();
  span_.id = tracer.open(&saved_parent_, &span_.parent);
  span_.start_ms = tracer.now_ms();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ms = tracer_.now_ms();
  tracer_.close(span_, saved_parent_);
}

collapois::agg::LazyClientPopulation::Factory traced_materialization(
    collapois::agg::LazyClientPopulation::Factory inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer](std::size_t i) {
    ScopedSpan span(tracer, "agg.materialize");
    return inner(i);
  };
}

collapois::agg::LazyFederation::SplitFactory traced_synthesis(
    collapois::agg::LazyFederation::SplitFactory inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer](std::size_t i) {
    ScopedSpan span(tracer, "data.synth");
    return inner(i);
  };
}

}  // namespace campaign_bench
