// Scalar reference kernels. Every other tier is property-tested
// bit-identical to these (tests/simd/coin_kernels_test.cc), and the vector
// bodies call back into them for unpadded tails, so this file is the single
// source of truth for what a kernel computes. The one exception is
// CoinMaskOpenWords' per-bit loop, which is inline in coin_kernels.h.

#include "simd/coin_kernels.h"
#include "simd/kernels_internal.h"

namespace vulnds::simd::internal {

std::size_t CoinSurvivorsScalar(uint64_t seed, const uint64_t* inner,
                                const uint64_t* threshold, std::size_t n,
                                uint32_t* out, CoinKernelStats* stats) {
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (CoinHits(seed, inner[i], threshold[i])) {
      out[found++] = static_cast<uint32_t>(i);
    }
  }
  if (stats != nullptr) stats->tail_coins += n;
  return found;
}

uint64_t CoinMask64Scalar(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold) {
  uint64_t hits = 0;
  for (std::size_t j = 0; j < kCoinMaskWorlds; ++j) {
    hits |= static_cast<uint64_t>(CoinHits(seeds[j], inner, threshold)) << j;
  }
  return hits;
}

void HashBatchScalar(uint64_t seed, uint64_t base, std::size_t n,
                     uint64_t* out, CoinKernelStats* stats) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Mix64(CoinInnerHash(base + i) ^ seed);
  }
  if (stats != nullptr) stats->tail_coins += n;
}

std::size_t FindActiveScalar(const unsigned char* flags,
                             const unsigned char* veto, std::size_t n,
                             uint32_t* out) {
  std::size_t found = 0;
  if (veto == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (flags[i] != 0) out[found++] = static_cast<uint32_t>(i);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (flags[i] != 0 && veto[i] == 0) out[found++] = static_cast<uint32_t>(i);
    }
  }
  return found;
}

}  // namespace vulnds::simd::internal
