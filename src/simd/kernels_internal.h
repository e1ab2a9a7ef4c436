// Per-tier kernel entry points, internal to src/simd. The scalar reference
// lives in kernels_scalar.cc (baseline ISA). The vector kernels are written
// once, in kernels_vector.h, and instantiated by the only two translation
// units built with ISA flags: kernels_avx2.cc (-mavx2) and kernels_avx512.cc
// (-mavx512f -mavx512dq -mbmi2). Dispatch lives in coin_kernels.cc, apart
// from CoinMaskOpenWords, which is inline in coin_kernels.h.
//
// The ODR rule: an inline or template symbol with vague linkage, emitted by
// an ISA TU and by another TU, is merged by the linker, which can leak AVX2
// or AVX-512 encodings into code that runs on hosts without them. So
// kernels_vector.h keeps everything in an anonymous namespace, and the ISA
// TUs export only their kernel sets. scripts/check_simd_odr.py (a CI step)
// fails if either ISA object defines a weak symbol or a global one outside
// vulnds::simd::internal.

#ifndef VULNDS_SIMD_KERNELS_INTERNAL_H_
#define VULNDS_SIMD_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace vulnds::simd {

struct CoinKernelStats;

namespace internal {

std::size_t CoinSurvivorsScalar(uint64_t seed, const uint64_t* inner,
                                const uint64_t* threshold, std::size_t n,
                                uint32_t* out, CoinKernelStats* stats);

uint64_t CoinMask64Scalar(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold);

void HashBatchScalar(uint64_t seed, uint64_t base, std::size_t n,
                     uint64_t* out, CoinKernelStats* stats);

std::size_t FindActiveScalar(const unsigned char* flags,
                             const unsigned char* veto, std::size_t n,
                             uint32_t* out);

// What a vector CoinMaskOpenWords body evaluated: the open coins, and the
// lanes it hashed them in. Returned in two registers, so the caller's counts
// need not live in memory.
struct OpenCoins {
  uint64_t coins;
  uint64_t lanes;
};

// One ISA file's vector kernels, each with its scalar reference's signature
// and contract (coin_survivors needs CoinSurvivorsPadded's padding: it has
// no scalar tail; coin_mask_open_words is CoinMaskOpenWords with its counts
// returned). A member is null where the tier runs another body: the avx2
// set leaves CoinMaskOpenWords to the inline per-bit loop, the avx512 set
// leaves the other three kernels to the avx2 set. Every member is null when
// the file was built without its ISA flags; the tier is then unavailable.
struct VectorKernels {
  decltype(&CoinSurvivorsScalar) coin_survivors;
  decltype(&CoinMask64Scalar) coin_mask64;
  OpenCoins (*coin_mask_open_words)(const uint64_t* seeds, uint64_t inner,
                                    uint64_t threshold, const uint64_t* open,
                                    std::size_t words, uint64_t* hits);
  decltype(&HashBatchScalar) hash_batch;
  decltype(&FindActiveScalar) find_active;
};

extern const VectorKernels kAvx2Kernels;    // kernels_avx2.cc, 4 × u64
extern const VectorKernels kAvx512Kernels;  // kernels_avx512.cc, 8 × u64

}  // namespace internal
}  // namespace vulnds::simd

#endif  // VULNDS_SIMD_KERNELS_INTERNAL_H_
