// Simulated client->server transport: message-level faults, retry with
// capped exponential backoff, and a virtual-clock round deadline.
//
// Production FL systems are defined by their transport: over-selection,
// report deadlines, partial participation (Shejwalkar et al., "Back to
// the Drawing Board"; Bonawitz et al., "Towards Federated Learning at
// Scale"). This layer sits between Server::run_round and its clients and
// models exactly that — an update that was computed is no longer
// guaranteed to arrive, arrive once, or arrive on time:
//
//  - loss:        a send attempt vanishes in flight;
//  - corruption:  a send attempt arrives damaged (byte flip or
//                 truncation) and is rejected by the receiver's envelope
//                 checksum (net/envelope.h) — indistinguishable from loss
//                 to the sender, counted separately in telemetry;
//  - duplication: a delivered message also arrives a second time (the
//                 server de-duplicates by client id; the copy is counted);
//  - latency:     every attempt's arrival time is drawn uniformly from
//                 [latency_min_ms, latency_max_ms) on a VIRTUAL clock —
//                 simulated time, unrelated to wall-clock — which orders
//                 arrivals and decides deadline misses;
//  - retry:       a client that detects loss/corruption re-sends after a
//                 capped exponential backoff, up to max_retries re-sends;
//  - deadline:    with deadline_ms > 0 the server closes the round at
//                 that virtual time; an update whose delivery lands later
//                 (or whose sender's backoff schedule passes it) is a
//                 deadline dropout.
//
// Determinism: every decision — loss, corruption, duplication, latency —
// is COUNTER-BASED, a splitmix64 hash of (seed, client id, round, attempt,
// lane), exactly like fl::FaultModel. Decisions are pure functions of the
// tuple, independent of the order clients are processed in and of the
// thread count, so the RuntimeDeterminism guarantees extend unchanged.
// The only mutable state is the cumulative telemetry totals, which are
// serialized into checkpoints; the per-round message flow is fully
// drained at the round barrier, so the in-flight queue is empty at every
// checkpoint boundary (serialized as an explicit zero-length marker).
#pragma once

#include <cstdint>
#include <optional>

#include "fl/state.h"
#include "net/envelope.h"

namespace collapois::net {

struct NetConfig {
  // Master switch. Disabled (the default) bypasses the transport
  // entirely: run_round behaves exactly as before this layer existed.
  bool enabled = false;

  // Per-send-attempt fault probabilities.
  double loss_prob = 0.0;
  double corrupt_prob = 0.0;
  // Probability that a delivered message also arrives as a duplicate.
  double duplicate_prob = 0.0;

  // Uniform per-attempt delivery latency on the virtual clock, in ms.
  double latency_min_ms = 10.0;
  double latency_max_ms = 50.0;

  // Virtual-clock round deadline in ms; 0 disables (no deadline).
  double deadline_ms = 0.0;

  // Retry budget: the client sends at most 1 + max_retries attempts.
  std::size_t max_retries = 3;
  // Backoff before re-send attempt a (0-based failure count):
  // min(backoff_base_ms * 2^a, backoff_cap_ms).
  double backoff_base_ms = 20.0;
  double backoff_cap_ms = 160.0;

  // Over-provisioned sampling (production over-selection): the server
  // samples ceil((1 + over_sample) * k) clients for a target cohort of k
  // and aggregates the first k arrivals; later arrivals are discarded as
  // excess.
  double over_sample = 0.0;

  // Stream selector for the counter-based decisions.
  std::uint64_t seed = 0x7e1e40a37ULL;
};

// Finite probabilities in [0, 1], non-negative latencies/backoffs/deadline
// with latency_min <= latency_max, over_sample in [0, 16]; throws
// std::invalid_argument with a "NetConfig: ..." message otherwise.
void validate(const NetConfig& config);

// Per-round transport counters (also accumulated across rounds as the
// NetworkModel's checkpointed totals). "sampled == accepted + dropped +
// rejected" stays an invariant of RoundTelemetry; these counters describe
// the message flow underneath it.
struct TransportStats {
  std::size_t msgs_sent = 0;   // every send attempt, retries included
  std::size_t lost = 0;        // attempts that vanished in flight
  std::size_t corrupted = 0;   // attempts rejected by the checksum
  std::size_t retried = 0;     // re-send attempts (msgs_sent minus firsts)
  std::size_t duplicated = 0;  // duplicate copies delivered
  // Client-level dropout causes (each sampled client at most once):
  std::size_t transport_dropped = 0;  // retry budget exhausted
  std::size_t deadline_dropped = 0;   // delivered/gave up past the deadline
  std::size_t excess_dropped = 0;     // arrived after the cohort filled
  // Bytes-on-wire accounting (DESIGN.md §15). Sent bytes count EVERY
  // send attempt (retries resend the same encoded payload); received
  // bytes count intact in-deadline deliveries only. fp32_bytes_sent is
  // what the same attempts would have weighed under the identity codec,
  // so fp32_bytes_sent / wire_bytes_sent is the compression ratio
  // actually realized on the wire (== 1 under identity).
  std::size_t fp32_bytes_sent = 0;     // pre-codec payload bytes, all attempts
  std::size_t wire_bytes_sent = 0;     // encoded payload bytes, all attempts
  std::size_t wire_bytes_received = 0; // encoded bytes of intact deliveries
  // Virtual arrival-time quantiles over the round's intact in-deadline
  // deliveries (nearest-rank). In the cumulative totals only
  // arrival_max_ms is meaningful (the per-round quantiles do not compose).
  double arrival_p50_ms = 0.0;
  double arrival_p90_ms = 0.0;
  double arrival_max_ms = 0.0;

  // Add `other`'s counters into this (quantiles: max only).
  void accumulate(const TransportStats& other);
};

enum class DeliveryStatus {
  delivered,  // intact, within the deadline
  late,       // intact delivery (or send schedule) past the deadline
  lost,       // retry budget exhausted without an intact delivery
};

const char* delivery_status_name(DeliveryStatus status);

struct Delivery {
  DeliveryStatus status = DeliveryStatus::lost;
  // Virtual arrival time of the intact delivery (delivered/late), or the
  // last attempt's arrival time (lost).
  double arrival_ms = 0.0;
  std::size_t attempts = 0;
  bool duplicated = false;
  // The update decoded from the wire — present only when delivered. Using
  // the decoded copy (not the sender's object) keeps the wire format on
  // the real path; the codec is bit-exact so this changes nothing.
  std::optional<fl::ClientUpdate> update;
};

class NetworkModel {
 public:
  // Throws std::invalid_argument when validate(config) does.
  explicit NetworkModel(NetConfig config);

  const NetConfig& config() const { return config_; }

  // Backoff before re-send attempt `failures` (0-based): the capped
  // exponential schedule above. Exposed for tests.
  static double backoff_ms(const NetConfig& config, std::size_t failures);

  // Simulate the full send of `envelope` from `client_id` at `round`:
  // attempts, backoff, deadline. Pure function of (config, client, round)
  // — message-level counters are accumulated into `stats` (caller-owned,
  // typically the round's RoundTelemetry entry), never into the model, so
  // transmit() is const and order-independent.
  Delivery transmit(std::size_t client_id, std::size_t round,
                    const Envelope& envelope, TransportStats* stats) const;

  // Cumulative counters across all rounds (the model's only mutable
  // state; serialized into checkpoints for bit-exact resume).
  const TransportStats& totals() const { return totals_; }
  void accumulate_round(const TransportStats& round_stats);

  void save_state(fl::StateWriter& w) const;
  void load_state(fl::StateReader& r);

 private:
  NetConfig config_;
  TransportStats totals_;
};

}  // namespace collapois::net
