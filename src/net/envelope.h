// Message envelope for the simulated transport (src/net/).
//
// Client updates cross the simulated network as byte payloads, not as
// in-process objects: the sender serializes its ClientUpdate through the
// fl/state binary codec and stamps a word-wise FNV-1a checksum over the
// payload.
// The receiver verifies the checksum BEFORE parsing, so a truncated or
// bit-flipped message is detected at the network boundary — with a
// telemetry counter — instead of surfacing as a mysterious NaN deep in
// aggregation (or as a StateReader overrun).
//
// The delta vector's wire representation is decided by the negotiated
// update codec (net/codec.h): the agreed kind rides in the envelope
// header (routing metadata, outside the checksummed payload) and the
// checksum covers the ENCODED payload — the bytes that actually cross
// the wire. The default identity codec is bit-exact (raw IEEE-754 bits,
// little-endian), so a clean wire round-trip returns the identical
// update, float for float — the property the zero-fault transport
// configuration's element-exactness guarantee rests on. The lossy
// codecs trade that exactness for bytes; fp32_bytes records what the
// uncompressed payload would have weighed so TransportStats can account
// the compression ratio.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fl/update.h"
#include "net/codec.h"

namespace collapois::net {

// 64-bit word-wise FNV-1a: the FNV-1a step (xor, multiply by the odd FNV
// prime) over each 8-byte little-endian word, then over each byte of the
// tail, then over the length. Both steps are bijections of the running
// state, so any change confined to one word (every single-byte flip)
// always changes the digest; the length term separates a payload from
// its zero-padded extensions. Not cryptographic — the threat here is
// faults (truncation, bit flips), not forgery. Also the checkpoint
// image's payload digest (sim/checkpoint.h).
std::uint64_t payload_checksum(std::span<const std::uint8_t> payload);

struct Envelope {
  // Routing metadata travels outside the checksummed payload, like a
  // packet header.
  std::size_t sender_id = 0;
  std::size_t round = 0;
  // The negotiated update codec this payload was encoded with; the
  // receiver selects its decoder from this field.
  CodecKind codec = CodecKind::identity;
  // What the identity-encoded payload would have weighed, for
  // bytes-on-wire accounting (== payload.size() under identity).
  std::size_t fp32_bytes = 0;
  std::uint64_t checksum = 0;
  std::vector<std::uint8_t> payload;
};

// Serialize an update into a checksummed envelope with the negotiated
// codec (the 2-arg overload is the identity codec — the raw pre-codec
// wire format, byte-identical to what it has always produced).
Envelope encode_update(const fl::ClientUpdate& update, std::size_t round);
Envelope encode_update(const fl::ClientUpdate& update, std::size_t round,
                       const CodecConfig& codec);

// Verify the checksum, then parse with the decoder the envelope header
// names. Returns nullopt when the checksum does not match the payload
// (damaged in flight), the codec field is not a known kind, or the
// payload does not parse cleanly (every byte must be consumed).
std::optional<fl::ClientUpdate> decode_update(const Envelope& envelope);

}  // namespace collapois::net
