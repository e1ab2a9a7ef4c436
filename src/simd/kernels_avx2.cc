// The avx2 tier: kernels_vector.h at 4 × u64 lanes (FindActive: 32 bytes).
// The only TU built with -mavx2. Built without it, the kernel set is null
// and dispatch.cc reports the tier unavailable.

#include "simd/kernels_internal.h"

#ifdef __AVX2__

#include <immintrin.h>

#include "simd/kernels_vector.h"

namespace vulnds::simd::internal {
namespace {

typedef uint64_t U64x4 __attribute__((vector_size(32)));
typedef unsigned char U8x32 __attribute__((vector_size(32)));

unsigned Below(Signed<U64x4> a, Signed<U64x4> b) {
  return _mm256_movemask_pd(reinterpret_cast<__m256d>(a < b));
}

unsigned Zeros(U8x32 v) {
  return _mm256_movemask_epi8(reinterpret_cast<__m256i>(v == 0));
}

}  // namespace

extern const VectorKernels kAvx2Kernels = {
    CoinSurvivorsVec<U64x4, Below>, CoinMask64Vec<U64x4, Below>, nullptr,
    HashBatchVec<U64x4>, FindActiveVec<U8x32, Zeros>};

}  // namespace vulnds::simd::internal

#else

extern const vulnds::simd::internal::VectorKernels
    vulnds::simd::internal::kAvx2Kernels = {};

#endif  // __AVX2__
