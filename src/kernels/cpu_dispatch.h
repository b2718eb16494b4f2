// Runtime CPU dispatch for the SIMD microkernels (DESIGN.md §14).
//
// One binary runs correctly everywhere: the instruction-set tier used by
// the blocked GEMM microkernel and the vectorized defense column tiles is
// selected at runtime from cpuid-reported features, never by compile-time
// flags alone. Two tiers exist:
//
//   scalar — the portable C++ microkernels (auto-vectorized at -O3, so
//            SSE2 on x86-64); always available, and the reference the
//            avx2 tier is property-tested against.
//   avx2   — 256-bit intrinsics with FMA. The defense column tiles stay
//            exactly equal to scalar (per-lane identical operation
//            order); the GEMM microkernel uses fused multiply-add (one
//            rounding instead of two), so GEMM results agree with the
//            scalar tier only to the cross-set elementwise tolerance.
//
// Selection happens once, on first use: the best tier the CPU supports,
// unless the COLLAPOIS_FORCE_ISA environment variable names a LOWER tier
// ("scalar" | "avx2") — the CI dispatch matrix runs the property
// suites under each forced tier. Forcing a tier the CPU cannot execute is
// a loud error, not a crash-later: dispatch initialization throws.
//
// The dispatch tier is deliberately NOT part of the checkpoint
// fingerprint (sim/checkpoint.cpp): only the kernel KIND (naive/blocked)
// pins a trajectory. Coordinate-wise defense aggregation is bit-exact
// across tiers, and a checkpoint written on an AVX2 host must remain
// resumable on a host that only has the scalar tier.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace collapois::kernels {

enum class IsaTier { scalar, avx2 };

const char* isa_tier_name(IsaTier tier);
// Throws std::invalid_argument on an unknown name.
IsaTier parse_isa_tier(const std::string& name);

// cpuid-reported features of the executing CPU (all false on non-x86).
// Detection runs once; the result is cached for the process lifetime.
struct CpuFeatures {
  bool sse2 = false;
  bool sse4_2 = false;
  bool avx = false;     // includes the OS XSAVE/YMM-state check
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;  // detected and reported, not yet targeted
};
const CpuFeatures& cpu_features();

// The best tier cpu_features() supports (avx2 requires AVX2 *and* FMA
// *and* OS YMM state; otherwise scalar).
IsaTier detected_tier();

// Every tier this CPU can run, lowest first — what the property suites
// and benches sweep.
std::vector<IsaTier> available_tiers();

// The tier the kernels actually run. Initialized on first call: the
// COLLAPOIS_FORCE_ISA override when set (throws std::runtime_error if it
// names a tier above detected_tier() or an unknown name), else
// detected_tier().
IsaTier active_tier();

// Re-pin the active tier at runtime — the property suites sweep every
// available tier this way. Throws std::runtime_error when `tier` exceeds
// detected_tier(). NOT thread-safe against concurrent kernel calls: call
// it only from single-threaded setup code, like set_active_kernels().
void set_active_tier(IsaTier tier);

// What the dispatcher selected, for run reports and bench artifacts.
struct DispatchInfo {
  IsaTier tier = IsaTier::scalar;
  const char* microkernel = "";  // e.g. "avx2-fma"
  std::size_t mr = 0;            // microkernel register-tile rows
  std::size_t nr = 0;            // microkernel register-tile cols
  bool forced = false;           // COLLAPOIS_FORCE_ISA was honored
};
DispatchInfo dispatch_info();

// "sse2,sse4.2,avx,fma,avx2" — the detected feature flags, for reports.
std::string cpu_feature_string();

}  // namespace collapois::kernels
