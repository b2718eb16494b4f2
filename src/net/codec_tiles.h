// Internal: the update-codec layer's SIMD kernels, dispatched on the same
// runtime ISA tier as the GEMM microkernels and the defense column tiles
// (kernels/cpu_dispatch.h). Only codec.cpp and the tier TUs include this.
//
// Every op is elementwise or an order-free reduction, so both tiers
// produce BIT-IDENTICAL results — stronger than the GEMM tiers' tolerance
// contract, and deliberately so: the encoded payload bytes feed the
// Envelope checksum, and a tier-dependent encoding would make the wire
// format a function of the host CPU. The guarantees, op by op:
//
//   f32_to_f16 / f16_to_f32 — branch-free integer IEEE-754 binary32 <->
//       binary16 conversion with round-to-nearest-even (the float add in
//       the subnormal path is RNE in scalar and in vaddps alike).
//       No F16C instructions: the same bit manipulation runs on every
//       tier, so no extra cpuid lane is needed.
//   absmax_scan — max|x| (an associative, commutative reduction over
//       non-NaN values: lane-wise then horizontal max equals the
//       sequential scalar max bit-for-bit) plus an all-finite flag from
//       integer exponent tests. When all_finite is false, max_abs is
//       UNSPECIFIED — the encoders take the poison-marker path and never
//       read it.
//   quantize_i8 / dequantize_i8 — q = rne(x * inv_scale) clamped to
//       [-127, 127] (cvtps round-to-nearest-even == std::nearbyintf under
//       the default rounding mode; a single multiply, no FMA), and
//       x^ = (float)q * scale (exact int->float convert + one multiply).
//   abs_values — sign-bit clear.
//   scatter_add — dst[idx[i]] += val[i] with unique indices. Inherently
//       serial (no scatter below AVX-512); every tier runs the scalar
//       body, kept in the vtable so the decode path has a single
//       dispatch surface.
#pragma once

#include <cstdint>
#include <cstring>

namespace collapois::net::detail {

struct CodecOps {
  void (*f32_to_f16)(const float* src, std::uint16_t* dst, std::size_t n);
  void (*f16_to_f32)(const std::uint16_t* src, float* dst, std::size_t n);
  void (*absmax_scan)(const float* src, std::size_t n, float* max_abs,
                      bool* all_finite);
  void (*quantize_i8)(const float* src, std::int8_t* dst, std::size_t n,
                      float inv_scale);
  void (*dequantize_i8)(const std::int8_t* src, float* dst, std::size_t n,
                        float scale);
  void (*abs_values)(const float* src, float* dst, std::size_t n);
  void (*scatter_add)(const std::uint32_t* idx, const float* val,
                      std::size_t k, float* dst);
};

// The op set for kernels::active_tier().
const CodecOps& codec_ops();

// Tier tables (codec.cpp; avx2 in codec_simd_avx2.cpp, built with
// -mavx2 -mfma — stubbed to compiled()==false on other targets).
extern const CodecOps kScalarCodecOps;
bool avx2_codec_compiled();
const CodecOps& avx2_codec_ops();

// Scalar elementwise conversions, shared by every tier's remainder loop
// (SIMD body + this tail is bitwise identical to a pure scalar pass
// because each element converts independently).
//
// float -> half, round-to-nearest-even (the float_to_half_fast3_rtne
// construction): NaN -> 0x7e00 (quiet), overflow and inf -> 0x7c00,
// subnormal halves via one RNE float add against 0.5f whose mantissa
// bits land exactly where the half's mantissa lives.
inline std::uint16_t half_from_float(float x) {
  std::uint32_t f = 0;
  std::memcpy(&f, &x, sizeof(f));
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  f &= 0x7fffffffu;
  std::uint16_t h;
  if (f >= 0x7f800000u) {  // inf or NaN
    h = (f > 0x7f800000u) ? 0x7e00 : 0x7c00;
  } else if (f >= ((127u + 16u) << 23)) {  // rounds past the half range
    h = 0x7c00;
  } else if (f < (113u << 23)) {  // half subnormal or zero
    float magic = 0.5f;  // bits 0x3f000000 = 2^(-14) * 2^13, see above
    std::uint32_t magic_bits = 0;
    std::memcpy(&magic_bits, &magic, sizeof(magic_bits));
    float v = 0.0f;
    std::memcpy(&v, &f, sizeof(v));
    v += magic;  // RNE add aligns the 10 mantissa bits
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = static_cast<std::uint16_t>(bits - magic_bits);
  } else {
    const std::uint32_t mant_odd = (f >> 13) & 1u;
    f += (static_cast<std::uint32_t>(15 - 127) << 23) + 0xfffu;
    f += mant_odd;
    h = static_cast<std::uint16_t>(f >> 13);
  }
  return static_cast<std::uint16_t>(h | sign);
}

// half -> float: shift the exponent/mantissa field up, rebias, and fix
// the two special exponents (inf/NaN keep all-ones; subnormals
// renormalize through one exact float subtract).
inline float float_from_half(std::uint16_t h) {
  const std::uint32_t shifted_exp = 0x7c00u << 13;
  std::uint32_t o = static_cast<std::uint32_t>(h & 0x7fffu) << 13;
  const std::uint32_t exp = o & shifted_exp;
  o += (127u - 15u) << 23;
  if (exp == shifted_exp) {
    o += (128u - 16u) << 23;  // inf/NaN: re-set the exponent to all ones
  } else if (exp == 0) {
    o += 1u << 23;  // subnormal: renormalize
    float v = 0.0f;
    std::memcpy(&v, &o, sizeof(v));
    float magic = 0.0f;
    const std::uint32_t magic_bits = 113u << 23;
    std::memcpy(&magic, &magic_bits, sizeof(magic));
    v -= magic;
    std::memcpy(&o, &v, sizeof(o));
  }
  o |= static_cast<std::uint32_t>(h & 0x8000u) << 16;
  float out = 0.0f;
  std::memcpy(&out, &o, sizeof(out));
  return out;
}

}  // namespace collapois::net::detail
