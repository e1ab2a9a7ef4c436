// Runtime SIMD dispatch for the possible-world kernels.
//
// The kernel layer (coin_kernels.h) ships three tiers of its entry points: a
// portable scalar reference, an AVX2 build and an AVX-512 build, each vector
// tier compiled in its own translation unit (kernels_avx2.cc with -mavx2,
// kernels_avx512.cc with -mavx512f -mavx512dq -mbmi2; the rest of the tree
// stays baseline-ISA). Which one runs is a pure execution decision — every
// kernel is bit-identical across tiers by contract (property-tested in
// tests/simd/) — so the tier can be chosen per request, per process, or per
// CI run without ever touching a result or a cache key.
//
// Resolution order:
//   * a request-level `simd=auto|avx512|avx2|scalar` knob maps to SimdMode;
//   * SimdMode::kAuto resolves to the process default, which is read ONCE
//     from the VULNDS_SIMD environment variable (same vocabulary) and falls
//     back to CPUID detection;
//   * asking for a tier the host (or build) cannot run degrades to the next
//     one down — avx512 to avx2, avx2 to scalar — never an error, because the
//     answer is the same bits either way.
//
// Callers resolve the tier once per query and pass it down to every kernel
// call. The kernels never resolve it themselves: the block kernel calls them
// once per 64 worlds, where even one environment lookup per call costs more
// than the vector tier saves.

#ifndef VULNDS_SIMD_DISPATCH_H_
#define VULNDS_SIMD_DISPATCH_H_

#include <string>

#include "common/status.h"

namespace vulnds::simd {

/// The implementation actually executing: what ResolveTier() resolved to.
/// Ordered by width, so `tier >= kAvx2` reads "a vector tier at least as
/// wide as AVX2".
enum class SimdTier {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// What a caller asked for (knob vocabulary). kAuto defers to the process
/// default; the explicit tiers force it (degrading to the widest tier below
/// when the host or build cannot honor it).
enum class SimdMode {
  kAuto = 0,
  kScalar,
  kAvx2,
  kAvx512,
};

/// True iff the AVX2 kernels were compiled in AND the CPU reports AVX2.
bool Avx2Available();

/// True iff kernels_avx2.cc was built with AVX2 enabled (compile-time half
/// of Avx2Available; exposed so tests can tell "old CPU" from "old build").
bool Avx2KernelsCompiled();

/// True iff the AVX-512 kernels were compiled in AND the CPU reports
/// AVX-512F, AVX-512DQ (the native 64-bit multiply) and BMI2 (the bit
/// deposit of the packed edge coins).
bool Avx512Available();

/// True iff kernels_avx512.cc was built with AVX-512F, AVX-512DQ and BMI2
/// enabled.
bool Avx512KernelsCompiled();

/// The tier the best supported implementation resolves to (CPUID only; no
/// environment consultation): avx512, else avx2, else scalar.
SimdTier BestSupportedTier();

/// The process-default tier: VULNDS_SIMD=auto|avx512|avx2|scalar when set
/// (invalid values fall back to auto), else BestSupportedTier(). Resolved
/// once at first use and cached for the process lifetime.
SimdTier DefaultTier();

/// Resolves a request's mode to the tier that will execute: kAuto maps to
/// DefaultTier(), explicit tiers are honored when available and degrade
/// avx512 -> avx2 -> scalar otherwise.
SimdTier ResolveTier(SimdMode mode);

/// Wire/telemetry name of a tier ("scalar", "avx2", "avx512").
const char* SimdTierName(SimdTier tier);

/// Knob name of a mode ("auto", "scalar", "avx2", "avx512").
const char* SimdModeName(SimdMode mode);

/// Parses the knob vocabulary ("auto" | "avx512" | "avx2" | "scalar",
/// case-insensitive).
Result<SimdMode> ParseSimdMode(const std::string& text);

}  // namespace vulnds::simd

#endif  // VULNDS_SIMD_DISPATCH_H_
