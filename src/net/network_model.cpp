#include "net/network_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace collapois::net {

namespace {

// Decision lanes for the counter-based draws; each (client, round,
// attempt) cell draws independently per lane.
constexpr std::uint64_t kLaneLoss = 1;
constexpr std::uint64_t kLaneLatency = 2;
constexpr std::uint64_t kLaneCorrupt = 3;
constexpr std::uint64_t kLaneCorruptKind = 4;
constexpr std::uint64_t kLaneDuplicate = 5;

std::uint64_t splitmix64_once(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t cell_hash(std::uint64_t seed, std::size_t client_id,
                        std::size_t round, std::size_t attempt,
                        std::uint64_t lane) {
  std::uint64_t h = splitmix64_once(seed ^ (0x9e3779b97f4a7c15ULL * lane));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(client_id));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(round));
  h = splitmix64_once(h ^ static_cast<std::uint64_t>(attempt));
  return h;
}

// Counter-based uniform in [0, 1) for the cell.
double cell_uniform(std::uint64_t seed, std::size_t client_id,
                    std::size_t round, std::size_t attempt,
                    std::uint64_t lane) {
  return static_cast<double>(
             cell_hash(seed, client_id, round, attempt, lane) >> 11) *
         0x1.0p-53;
}

// Damage an envelope the way the network would: flip one payload byte or
// truncate the payload, deterministically per cell. Used to exercise the
// receiver's checksum path with real damaged bytes.
Envelope damage_envelope(const Envelope& env, std::uint64_t kind_hash) {
  Envelope damaged = env;
  if (damaged.payload.empty()) {
    damaged.checksum ^= 0x1;  // nothing to damage but the header
    return damaged;
  }
  const std::size_t at =
      static_cast<std::size_t>(kind_hash >> 8) % damaged.payload.size();
  if ((kind_hash & 1) == 0) {
    damaged.payload[at] ^= 0xFF;
  } else {
    damaged.payload.resize(at);  // truncation, possibly to empty
  }
  return damaged;
}

}  // namespace

void TransportStats::accumulate(const TransportStats& other) {
  msgs_sent += other.msgs_sent;
  lost += other.lost;
  corrupted += other.corrupted;
  retried += other.retried;
  duplicated += other.duplicated;
  transport_dropped += other.transport_dropped;
  deadline_dropped += other.deadline_dropped;
  excess_dropped += other.excess_dropped;
  fp32_bytes_sent += other.fp32_bytes_sent;
  wire_bytes_sent += other.wire_bytes_sent;
  wire_bytes_received += other.wire_bytes_received;
  arrival_max_ms = std::max(arrival_max_ms, other.arrival_max_ms);
}

const char* delivery_status_name(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::delivered: return "delivered";
    case DeliveryStatus::late: return "late";
    case DeliveryStatus::lost: return "lost";
  }
  return "unknown";
}

void validate(const NetConfig& config) {
  auto check_prob = [](double p, const char* name) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      throw std::invalid_argument(std::string("NetConfig: ") + name +
                                  " must be a probability in [0, 1]");
    }
  };
  auto check_nonneg = [](double v, const char* name) {
    if (!std::isfinite(v) || v < 0.0) {
      throw std::invalid_argument(std::string("NetConfig: ") + name +
                                  " must be finite and non-negative");
    }
  };
  check_prob(config.loss_prob, "loss_prob");
  check_prob(config.corrupt_prob, "corrupt_prob");
  check_prob(config.duplicate_prob, "duplicate_prob");
  check_nonneg(config.latency_min_ms, "latency_min_ms");
  check_nonneg(config.latency_max_ms, "latency_max_ms");
  check_nonneg(config.deadline_ms, "deadline_ms");
  check_nonneg(config.backoff_base_ms, "backoff_base_ms");
  check_nonneg(config.backoff_cap_ms, "backoff_cap_ms");
  if (config.latency_min_ms > config.latency_max_ms) {
    throw std::invalid_argument(
        "NetConfig: latency_min_ms must not exceed latency_max_ms");
  }
  if (!std::isfinite(config.over_sample) || config.over_sample < 0.0 ||
      config.over_sample > 16.0) {
    throw std::invalid_argument("NetConfig: over_sample must be in [0, 16]");
  }
}

NetworkModel::NetworkModel(NetConfig config) : config_(config) {
  validate(config_);
}

double NetworkModel::backoff_ms(const NetConfig& config,
                                std::size_t failures) {
  // min(base * 2^failures, cap), saturating the shift well before the
  // double overflows.
  const double factor =
      failures >= 53 ? config.backoff_cap_ms
                     : config.backoff_base_ms *
                           static_cast<double>(std::uint64_t{1} << failures);
  return std::min(factor, config.backoff_cap_ms);
}

Delivery NetworkModel::transmit(std::size_t client_id, std::size_t round,
                                const Envelope& envelope,
                                TransportStats* stats) const {
  Delivery d;
  double send_time = 0.0;
  const bool has_deadline = config_.deadline_ms > 0.0;
  for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (has_deadline && send_time > config_.deadline_ms) {
      // The backoff schedule walked past the round deadline: the client
      // gives up without sending again.
      d.status = DeliveryStatus::late;
      d.arrival_ms = send_time;
      return d;
    }
    ++d.attempts;
    ++stats->msgs_sent;
    stats->fp32_bytes_sent += envelope.fp32_bytes;
    stats->wire_bytes_sent += envelope.payload.size();
    if (attempt > 0) ++stats->retried;

    const double latency =
        config_.latency_min_ms +
        cell_uniform(config_.seed, client_id, round, attempt, kLaneLatency) *
            (config_.latency_max_ms - config_.latency_min_ms);
    const double arrival = send_time + latency;

    const bool lost = cell_uniform(config_.seed, client_id, round, attempt,
                                   kLaneLoss) < config_.loss_prob;
    bool rejected = false;
    if (lost) {
      ++stats->lost;
    } else if (cell_uniform(config_.seed, client_id, round, attempt,
                            kLaneCorrupt) < config_.corrupt_prob) {
      // Arrived damaged: materialize the damage and run it through the
      // receiver's checksum so the detection path is genuinely exercised.
      const Envelope damaged = damage_envelope(
          envelope, cell_hash(config_.seed, client_id, round, attempt,
                              kLaneCorruptKind));
      rejected = !decode_update(damaged).has_value();
      ++stats->corrupted;
    } else {
      // Intact arrival. Past the deadline the server has closed the
      // round and the message is discarded unread.
      if (has_deadline && arrival > config_.deadline_ms) {
        d.status = DeliveryStatus::late;
        d.arrival_ms = arrival;
        return d;
      }
      d.update = decode_update(envelope);
      if (!d.update.has_value()) {
        throw std::logic_error(
            "NetworkModel::transmit: clean envelope failed to decode "
            "(codec bug)");
      }
      d.status = DeliveryStatus::delivered;
      d.arrival_ms = arrival;
      stats->wire_bytes_received += envelope.payload.size();
      d.duplicated = cell_uniform(config_.seed, client_id, round, attempt,
                                  kLaneDuplicate) < config_.duplicate_prob;
      if (d.duplicated) ++stats->duplicated;
      return d;
    }
    (void)rejected;  // corrupt and lost retry identically from the sender
    d.arrival_ms = arrival;
    send_time += backoff_ms(config_, attempt);
  }
  d.status = DeliveryStatus::lost;
  return d;
}

void NetworkModel::accumulate_round(const TransportStats& round_stats) {
  totals_.accumulate(round_stats);
}

void NetworkModel::save_state(fl::StateWriter& w) const {
  w.write_size(totals_.msgs_sent);
  w.write_size(totals_.lost);
  w.write_size(totals_.corrupted);
  w.write_size(totals_.retried);
  w.write_size(totals_.duplicated);
  w.write_size(totals_.transport_dropped);
  w.write_size(totals_.deadline_dropped);
  w.write_size(totals_.excess_dropped);
  w.write_size(totals_.fp32_bytes_sent);
  w.write_size(totals_.wire_bytes_sent);
  w.write_size(totals_.wire_bytes_received);
  w.write_double(totals_.arrival_max_ms);
  // In-flight queue length. The round barrier drains every message before
  // a checkpoint can be taken, so this is structurally zero; the field
  // future-proofs the format for cross-round delivery.
  w.write_size(0);
}

void NetworkModel::load_state(fl::StateReader& r) {
  totals_ = TransportStats{};
  totals_.msgs_sent = r.read_size();
  totals_.lost = r.read_size();
  totals_.corrupted = r.read_size();
  totals_.retried = r.read_size();
  totals_.duplicated = r.read_size();
  totals_.transport_dropped = r.read_size();
  totals_.deadline_dropped = r.read_size();
  totals_.excess_dropped = r.read_size();
  totals_.fp32_bytes_sent = r.read_size();
  totals_.wire_bytes_sent = r.read_size();
  totals_.wire_bytes_received = r.read_size();
  totals_.arrival_max_ms = r.read_double();
  const std::size_t in_flight = r.read_size();
  if (in_flight != 0) {
    throw std::runtime_error(
        "NetworkModel::load_state: non-empty in-flight queue (checkpoint "
        "was not taken at a round barrier)");
  }
}

}  // namespace collapois::net
