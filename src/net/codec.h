// Pluggable update codecs for the simulated transport (DESIGN.md §15).
//
// The Envelope (net/envelope.h) ships a client update as a byte payload;
// the codec decides how the delta vector is represented in that payload:
//
//   identity — raw IEEE-754 bits, byte-identical to the pre-codec wire
//              format. The default; every exactness guarantee in the
//              test/bench suites is stated against this codec.
//   fp16     — IEEE-754 binary16 per element, round-to-nearest-even.
//              ~4x -> ~2x bytes; per-element error <= 2^-11 * |x| in the
//              normal half range, values past 65504 saturate to inf.
//   int8     — symmetric per-tensor linear quantization: scale =
//              max|x| / 127, q = rne(x / scale) in [-127, 127]. ~4x ->
//              ~1x bytes; per-element error <= scale / 2.
//   topk     — magnitude top-k sparsification: keep the k =
//              ceil(fraction * n) largest-|x| coordinates as (varint
//              delta-encoded sorted indices, fp16 values), decode
//              scatters them into a zero vector. Dropped coordinates
//              carry error up to the kept-set threshold.
//
// The lossy codecs cannot represent non-finite values (fp16/topk would
// saturate some, int8's scale would be poisoned), but corrupted updates
// (fl/faults.h corrupt_nan/corrupt_inf) must stay detectable after
// transport: an encoder that meets a non-finite element writes an
// explicit poison marker instead of values, and the decoder returns a
// delta of NaNs with the correct dimension — the server's non-finiteness
// check rejects it exactly as it rejects the fp32 original. What is
// preserved is the POISONED property, not the damage pattern.
//
// Both link ends must agree on the codec; negotiate_codec models the
// handshake (the server offers its configured codec, the client masks it
// against its capabilities, identity is the universal fallback). The
// encoded bytes are BIT-IDENTICAL across the scalar/avx2 dispatch
// tiers (see codec_tiles.h), so the wire format never depends on the
// host CPU and the codec config — not the tier — is what the checkpoint
// fingerprints (sim/checkpoint.h codec_fingerprint).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "fl/state.h"
#include "tensor/vecops.h"

namespace collapois::net {

enum class CodecKind : std::uint8_t { identity = 0, fp16, int8, topk };

struct CodecConfig {
  CodecKind kind = CodecKind::identity;
  // Kept-coordinate fraction for topk, in (0, 1]; k = max(1,
  // ceil(fraction * n)) per update.
  double topk_fraction = 0.1;
};

const char* codec_kind_name(CodecKind kind);
// Throws std::invalid_argument naming the bad name and the valid set.
CodecKind parse_codec_kind(const std::string& name);
// Validates the knobs: topk_fraction finite in (0, 1], whatever the
// kind (a stale out-of-range value is still a malformed config). Throws
// std::invalid_argument with a "CodecConfig: ..." message.
void validate_codec(const CodecConfig& config);

bool codec_is_lossy(CodecKind kind);

// Capability bitmask over CodecKind values (bit k = kind k supported).
std::uint32_t codec_capability_all();
// Per-link negotiation: the server offers its configured codec; a client
// that lacks the capability falls back to identity (always supported —
// it is the raw wire format). Returns the agreed config.
CodecConfig negotiate_codec(const CodecConfig& server_offer,
                            std::uint32_t client_capabilities);

// Scalar reference binary32 <-> binary16 conversion (RNE), exposed for
// the tolerance tests; the tiered kernels match it bitwise.
std::uint16_t codec_float_to_half(float x);
float codec_half_to_float(std::uint16_t h);

// Append the encoded representation of `delta` to `w` / read it back.
// encode/decode are exact inverses for identity, and for the lossy
// codecs reconstruct within the declared tolerance above. decode_delta
// throws std::runtime_error on a malformed body (bad index order,
// out-of-range k, ...) — the Envelope layer converts that into a
// rejected message.
void encode_delta(fl::StateWriter& w, std::span<const float> delta,
                  const CodecConfig& config);
tensor::FlatVec decode_delta(fl::StateReader& r, const CodecConfig& config);

}  // namespace collapois::net
