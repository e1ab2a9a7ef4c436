#include "simd/coin_kernels.h"

#include "simd/kernels_internal.h"

namespace vulnds::simd {

namespace {

// HashUnit's value for the 53-bit hash key x — the exact double the scalar
// reference compares against prob. Multiplying by the power of two is exact;
// double(x) + 0.5 rounds (to even) for x >= 2^52, which keeps the map
// merely NON-decreasing rather than strictly increasing, and non-decreasing
// is all the down-set argument in CoinThreshold needs.
inline double UnitOf(uint64_t x) {
  return (static_cast<double>(x) + 0.5) * 0x1.0p-53;
}

}  // namespace

uint64_t CoinThreshold(double prob) {
  // The early-outs of WorldEdgeSurvives / WorldNodeSelfDefaults, folded into
  // the threshold domain. `!(prob > 0)` is deliberate: it catches NaN, for
  // which the scalar predicate `HashUnit < prob` is false for every hash.
  if (!(prob > 0.0)) return 0;
  if (prob >= 1.0) return kCoinAlways;
  // Seed a guess near prob * 2^53, then walk it to the exact boundary.
  // UnitOf is non-decreasing, so "walk down while x-1 would not survive,
  // walk up while x would" terminates at the unique T with
  // UnitOf(y) < prob ⟺ y < T. The guess is within a few ulps of T, so the
  // loops run O(1) steps; this runs once per arc at column-build time, never
  // per world.
  const double scaled = prob * 9007199254740992.0;  // 2^53
  uint64_t x = scaled >= 1.0 ? static_cast<uint64_t>(scaled) : 0;
  if (x > kCoinAlways) x = kCoinAlways;
  while (x > 0 && !(UnitOf(x - 1) < prob)) --x;
  while (x < kCoinAlways && UnitOf(x) < prob) ++x;
  return x;
}

// The avx512 tier runs CoinMask64 from its own set and the other kernels
// from the avx2 set, so BSRBK executes the same instructions under both.

std::size_t CoinSurvivorsPadded(SimdTier tier, uint64_t seed,
                                const uint64_t* inner,
                                const uint64_t* threshold, std::size_t n,
                                uint32_t* out, CoinKernelStats* stats) {
  const auto body = tier >= SimdTier::kAvx2
                        ? internal::kAvx2Kernels.coin_survivors
                        : internal::CoinSurvivorsScalar;
  return body(seed, inner, threshold, n, out, stats);
}

uint64_t CoinMask64(SimdTier tier, const uint64_t* seeds, uint64_t inner,
                    uint64_t threshold) {
  const auto body =
      tier == SimdTier::kAvx512 ? internal::kAvx512Kernels.coin_mask64
      : tier == SimdTier::kAvx2 ? internal::kAvx2Kernels.coin_mask64
                                : internal::CoinMask64Scalar;
  return body(seeds, inner, threshold);
}

void HashBatch(SimdTier tier, uint64_t seed, uint64_t base, std::size_t n,
               uint64_t* out, CoinKernelStats* stats) {
  const auto body = tier >= SimdTier::kAvx2 ? internal::kAvx2Kernels.hash_batch
                                            : internal::HashBatchScalar;
  body(seed, base, n, out, stats);
}

std::size_t FindActive(SimdTier tier, const unsigned char* flags,
                       const unsigned char* veto, std::size_t n,
                       uint32_t* out) {
  const auto body = tier >= SimdTier::kAvx2 ? internal::kAvx2Kernels.find_active
                                            : internal::FindActiveScalar;
  return body(flags, veto, n, out);
}

}  // namespace vulnds::simd
