#include "kernels/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "kernels/ops_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace collapois::kernels {

namespace {

#if defined(__x86_64__) || defined(__i386__)

// xgetbv(0): does the OS save/restore the YMM halves on context switch?
// AVX instructions fault on CPUs that report AVX but run under an OS that
// never enabled XSAVE for them, so cpuid bit checks alone are not enough.
bool os_saves_ymm() {
  std::uint32_t eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr std::uint32_t kOsxsave = 1u << 27;
  if ((ecx & kOsxsave) == 0) return false;
  // xgetbv(0) via inline asm: the gcc builtin needs -mxsave, which would
  // put non-baseline code in this baseline-ISA TU. The instruction is
  // safe here — OSXSAVE above guarantees it exists and is enabled.
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0u));
  const std::uint32_t xcr0 = xcr0_lo;
  constexpr std::uint32_t kXmmYmm = 0x6;  // XMM (bit 1) + YMM (bit 2) state
  return (xcr0 & kXmmYmm) == kXmmYmm;
}

CpuFeatures detect_features() {
  CpuFeatures f;
  std::uint32_t eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  f.sse2 = (edx & (1u << 26)) != 0;
  f.sse4_2 = (ecx & (1u << 20)) != 0;
  f.fma = (ecx & (1u << 12)) != 0;
  const bool ymm = os_saves_ymm();
  f.avx = ymm && (ecx & (1u << 28)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = f.avx && (ebx & (1u << 5)) != 0;
    f.avx512f = f.avx && (ebx & (1u << 16)) != 0;
  }
  return f;
}

#else

CpuFeatures detect_features() { return {}; }

#endif

// The active tier, initialized lazily under g_init_once so the
// COLLAPOIS_FORCE_ISA check runs exactly once per process. After init the
// value only changes through set_active_tier (single-threaded setup, like
// the kernel-kind registry).
std::once_flag g_init_once;
std::atomic<IsaTier> g_active{IsaTier::scalar};
std::atomic<bool> g_forced{false};

void init_active_tier() {
  IsaTier tier = detected_tier();
  bool forced = false;
  if (const char* forced_name = std::getenv("COLLAPOIS_FORCE_ISA")) {
    IsaTier want;
    try {
      want = parse_isa_tier(forced_name);
    } catch (const std::invalid_argument&) {
      throw std::runtime_error(
          std::string("COLLAPOIS_FORCE_ISA: unknown tier '") + forced_name +
          "' (expected scalar | avx2)");
    }
    if (want > tier) {
      throw std::runtime_error(
          std::string("COLLAPOIS_FORCE_ISA=") + forced_name +
          ": this CPU only supports the '" + isa_tier_name(tier) +
          "' tier — refusing to run illegal instructions");
    }
    tier = want;
    forced = true;
  }
  g_active.store(tier, std::memory_order_relaxed);
  g_forced.store(forced, std::memory_order_relaxed);
}

}  // namespace

const char* isa_tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::scalar: return "scalar";
    case IsaTier::avx2: return "avx2";
  }
  return "unknown";
}

IsaTier parse_isa_tier(const std::string& name) {
  if (name == "scalar") return IsaTier::scalar;
  if (name == "avx2") return IsaTier::avx2;
  throw std::invalid_argument("parse_isa_tier: unknown tier '" + name + "'");
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_features();
  return f;
}

IsaTier detected_tier() {
  const CpuFeatures& f = cpu_features();
  // The avx2 microkernels use FMA broadcast-and-accumulate, so AVX2
  // without FMA (no real silicon ships this way) still falls back. A
  // build whose toolchain could not compile the AVX2 TU caps here too.
  if (f.avx2 && f.fma && detail::avx2_tier_compiled()) return IsaTier::avx2;
  return IsaTier::scalar;
}

std::vector<IsaTier> available_tiers() {
  std::vector<IsaTier> tiers{IsaTier::scalar};
  if (detected_tier() == IsaTier::avx2) tiers.push_back(IsaTier::avx2);
  return tiers;
}

IsaTier active_tier() {
  std::call_once(g_init_once, init_active_tier);
  return g_active.load(std::memory_order_relaxed);
}

void set_active_tier(IsaTier tier) {
  std::call_once(g_init_once, init_active_tier);
  if (tier > detected_tier()) {
    throw std::runtime_error(
        std::string("set_active_tier: tier '") + isa_tier_name(tier) +
        "' exceeds this CPU's detected tier '" +
        isa_tier_name(detected_tier()) + "'");
  }
  g_active.store(tier, std::memory_order_relaxed);
}

DispatchInfo dispatch_info() {
  DispatchInfo d;
  d.tier = active_tier();
  d.forced = g_forced.load(std::memory_order_relaxed);
  switch (d.tier) {
    case IsaTier::scalar:
      d.microkernel = "scalar-4x8";
      d.mr = 4;
      d.nr = 8;
      break;
    case IsaTier::avx2:
      d.microkernel = "avx2-fma-8x8";
      d.mr = 8;
      d.nr = 8;
      break;
  }
  return d;
}

std::string cpu_feature_string() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  auto add = [&s](bool has, const char* name) {
    if (!has) return;
    if (!s.empty()) s += ',';
    s += name;
  };
  add(f.sse2, "sse2");
  add(f.sse4_2, "sse4.2");
  add(f.avx, "avx");
  add(f.fma, "fma");
  add(f.avx2, "avx2");
  add(f.avx512f, "avx512f");
  return s.empty() ? "none" : s;
}

}  // namespace collapois::kernels
