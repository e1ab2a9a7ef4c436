#include "simd/dispatch.h"

#include <algorithm>
#include <cctype>

#include "common/env.h"
#include "simd/kernels_internal.h"

namespace vulnds::simd {

bool Avx2KernelsCompiled() {
  return internal::kAvx2Kernels.coin_mask64 != nullptr;
}

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports caches the CPUID result after the first call.
  return Avx2KernelsCompiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx512KernelsCompiled() {
  return internal::kAvx512Kernels.coin_mask64 != nullptr;
}

bool Avx512Available() {
#if defined(__x86_64__) || defined(__i386__)
  return Avx512KernelsCompiled() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("bmi2");
#else
  return false;
#endif
}

SimdTier BestSupportedTier() {
  if (Avx512Available()) return SimdTier::kAvx512;
  return Avx2Available() ? SimdTier::kAvx2 : SimdTier::kScalar;
}

SimdTier DefaultTier() {
  // Resolved once: serving threads can race to first use, so the init must
  // be the magic-static kind, and the env var is deliberately not re-read —
  // a process has exactly one default tier for its lifetime (the
  // vulnds_simd_tier gauge reports this value).
  static const SimdTier kDefault = [] {
    const Result<SimdMode> mode =
        ParseSimdMode(GetEnvString("VULNDS_SIMD", "auto"));
    // "auto" and anything unrecognized take the best tier. A forced tier the
    // host cannot run would SIGILL, so ResolveTier degrades it instead
    // (results are bit-identical, so this is invisible to callers).
    if (!mode.ok() || *mode == SimdMode::kAuto) return BestSupportedTier();
    return ResolveTier(*mode);
  }();
  return kDefault;
}

SimdTier ResolveTier(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return SimdTier::kScalar;
    case SimdMode::kAvx512:
      if (Avx512Available()) return SimdTier::kAvx512;
      [[fallthrough]];
    case SimdMode::kAvx2:
      return Avx2Available() ? SimdTier::kAvx2 : SimdTier::kScalar;
    case SimdMode::kAuto:
      break;
  }
  return DefaultTier();
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kScalar:
      break;
  }
  return "scalar";
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kAvx512:
      return "avx512";
    case SimdMode::kAuto:
      break;
  }
  return "auto";
}

Result<SimdMode> ParseSimdMode(const std::string& text) {
  std::string mode(text);
  std::transform(mode.begin(), mode.end(), mode.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (mode == "auto") return SimdMode::kAuto;
  if (mode == "scalar") return SimdMode::kScalar;
  if (mode == "avx2") return SimdMode::kAvx2;
  if (mode == "avx512") return SimdMode::kAvx512;
  return Status::InvalidArgument(
      "simd must be auto, avx512, avx2 or scalar, got '" + text + "'");
}

}  // namespace vulnds::simd
