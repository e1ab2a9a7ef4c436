// Per-tier kernel entry points. Internal to src/simd: the scalar set lives
// in kernels_scalar.cc (baseline ISA), the Avx2* set in kernels_avx2.cc and
// the Avx512* set in kernels_avx512.cc — the ONLY two translation units
// compiled with ISA flags (-mavx2; -mavx512f -mavx512dq). Nothing here may
// be defined inline in this header: an inline helper instantiated in an
// ISA-specific TU and in a baseline TU (or in both ISA-specific TUs) is an
// ODR trap — the linker keeps one copy, which can leak AVX2 or AVX-512
// encodings into code that runs on hosts without them. Dispatch lives in
// coin_kernels.cc.

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

/// True iff kernels_avx512.cc was compiled with AVX-512F and AVX-512DQ code
/// generation (its Avx512* symbols forward to scalar otherwise).
bool Avx512Compiled();

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
uint64_t CoinMask64Avx512(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold);
// CoinMaskOpen64Avx512 is declared in coin_kernels.h, beside the inline
// CoinMaskOpen64 that calls it.

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
