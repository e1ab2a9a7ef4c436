// Per-tier kernel entry points. Internal to src/simd: the scalar set lives
// in kernels_scalar.cc (baseline ISA), the Avx2* set in kernels_avx2.cc —
// the ONLY translation unit compiled with -mavx2. Nothing here may be
// defined inline in this header: an inline helper instantiated once in an
// AVX2 TU and once in a baseline TU is an ODR trap that can leak AVX2
// encodings into baseline code. Dispatch lives in coin_kernels.cc.

#ifndef VULNDS_SIMD_KERNELS_INTERNAL_H_
#define VULNDS_SIMD_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace vulnds::simd {

struct CoinKernelStats;

namespace internal {

/// True iff kernels_avx2.cc was compiled with AVX2 code generation (the
/// Avx2* symbols below forward to scalar otherwise, so calling them is
/// always safe to *link* — running them still requires CPUID, which
/// dispatch.cc checks).
bool Avx2Compiled();

std::size_t CoinSurvivorsScalar(uint64_t seed, const uint64_t* inner,
                                const uint64_t* threshold, std::size_t n,
                                uint32_t* out, CoinKernelStats* stats);
// Requires CoinSurvivorsPadded's padding: it has no scalar tail.
std::size_t CoinSurvivorsAvx2(uint64_t seed, const uint64_t* inner,
                              const uint64_t* threshold, std::size_t n,
                              uint32_t* out, CoinKernelStats* stats);

uint64_t CoinMask64Scalar(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold);
uint64_t CoinMask64Avx2(const uint64_t* seeds, uint64_t inner,
                        uint64_t threshold);

void HashBatchScalar(uint64_t seed, uint64_t base, std::size_t n,
                     uint64_t* out, CoinKernelStats* stats);
void HashBatchAvx2(uint64_t seed, uint64_t base, std::size_t n, uint64_t* out,
                   CoinKernelStats* stats);

std::size_t FindActiveScalar(const unsigned char* flags,
                             const unsigned char* veto, std::size_t n,
                             uint32_t* out);
std::size_t FindActiveAvx2(const unsigned char* flags,
                           const unsigned char* veto, std::size_t n,
                           uint32_t* out);

}  // namespace internal
}  // namespace vulnds::simd

#endif  // VULNDS_SIMD_KERNELS_INTERNAL_H_
