#include "net/envelope.h"

#include <bit>
#include <cstring>
#include <exception>

#include "fl/state.h"

namespace collapois::net {

// Words are read in host order, which is the little-endian order the
// checksum is defined over.
static_assert(std::endian::native == std::endian::little);

std::uint64_t payload_checksum(std::span<const std::uint8_t> payload) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV prime
  std::uint64_t h = 0xcbf29ce484222325ULL;            // FNV offset basis
  const std::size_t words = payload.size() / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, payload.data() + i * sizeof(w), sizeof(w));
    h ^= w;
    h *= kPrime;
  }
  for (std::size_t i = words * sizeof(std::uint64_t); i < payload.size();
       ++i) {
    h ^= payload[i];
    h *= kPrime;
  }
  h ^= static_cast<std::uint64_t>(payload.size());
  h *= kPrime;
  return h;
}

Envelope encode_update(const fl::ClientUpdate& update, std::size_t round) {
  return encode_update(update, round, CodecConfig{});
}

Envelope encode_update(const fl::ClientUpdate& update, std::size_t round,
                       const CodecConfig& codec) {
  fl::StateWriter w;
  w.write_size(update.client_id);
  w.write_double(update.weight);
  w.write_u64(static_cast<std::uint64_t>(update.status));
  w.write_size(update.staleness);
  encode_delta(w, update.delta, codec);

  Envelope env;
  env.sender_id = update.client_id;
  env.round = round;
  env.codec = codec.kind;
  // Identity payload layout: the four header fields above (8 bytes
  // each), the floats length prefix (8), then 4 bytes per element.
  env.fp32_bytes = 5 * sizeof(std::uint64_t) + 4 * update.delta.size();
  env.payload = w.take();
  env.checksum = payload_checksum(env.payload);
  return env;
}

std::optional<fl::ClientUpdate> decode_update(const Envelope& envelope) {
  if (payload_checksum(envelope.payload) != envelope.checksum) {
    return std::nullopt;
  }
  // The codec field is routing metadata (outside the checksum); an
  // unknown value means a damaged or forged header, not a parse bug.
  if (envelope.codec != CodecKind::identity &&
      envelope.codec != CodecKind::fp16 &&
      envelope.codec != CodecKind::int8 && envelope.codec != CodecKind::topk) {
    return std::nullopt;
  }
  // The checksum passed, so the payload is the bytes the sender wrote and
  // must parse; a parse failure here would mean a codec bug, but the
  // receiver still refuses the message rather than crashing the round.
  try {
    fl::StateReader r(envelope.payload);
    fl::ClientUpdate u;
    u.client_id = r.read_size();
    u.weight = r.read_double();
    const std::uint64_t status = r.read_u64();
    if (status > static_cast<std::uint64_t>(fl::UpdateStatus::straggler)) {
      return std::nullopt;
    }
    u.status = static_cast<fl::UpdateStatus>(status);
    u.staleness = r.read_size();
    CodecConfig codec;
    codec.kind = envelope.codec;  // decoders key on the kind alone
    u.delta = decode_delta(r, codec);
    if (!r.exhausted()) return std::nullopt;
    return u;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace collapois::net
