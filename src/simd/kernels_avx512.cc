// The avx512 tier: kernels_vector.h's CoinMask64 and CoinMaskOpenWords at
// 8 × u64 lanes, with the native 64-bit multiply (vpmullq, AVX-512DQ), the
// lane compress (vpcompressq) and the bit deposit (pdep, BMI2); its other
// kernels run at 4 lanes from the avx2 set. The only TU built with
// -mavx512f -mavx512dq -mbmi2. Built without them, the kernel set is null
// and dispatch.cc reports the tier unavailable.

#include "simd/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__BMI2__)

#include <immintrin.h>

#include "simd/kernels_vector.h"

namespace vulnds::simd::internal {
namespace {

typedef uint64_t U64x8 __attribute__((vector_size(64)));

// Compares into a mask register: GCC 12 turns a vector compare result into
// a mask with a vpmovm2q/vpmovq2m round trip.
unsigned Below(Signed<U64x8> a, Signed<U64x8> b) {
  return _mm512_cmplt_epi64_mask(reinterpret_cast<__m512i>(a),
                                 reinterpret_cast<__m512i>(b));
}

U64x8 Compress(unsigned mask, U64x8 v) {
  return reinterpret_cast<U64x8>(_mm512_maskz_compress_epi64(
      static_cast<__mmask8>(mask), reinterpret_cast<__m512i>(v)));
}

uint64_t Deposit(uint64_t bits, uint64_t mask) { return _pdep_u64(bits, mask); }

}  // namespace

extern const VectorKernels kAvx512Kernels = {
    nullptr, CoinMask64Vec<U64x8, Below>,
    CoinMaskOpenWordsVec<U64x8, Below, Compress, Deposit>, nullptr, nullptr};

}  // namespace vulnds::simd::internal

#else

extern const vulnds::simd::internal::VectorKernels
    vulnds::simd::internal::kAvx512Kernels = {};

#endif  // __AVX512F__ && __AVX512DQ__ && __BMI2__
