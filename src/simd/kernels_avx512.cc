// AVX-512 kernels: 8 × u64 lanes per coin block, for the block kernel's two
// world-coin loops (CoinMask64 seeding, CoinMaskOpen64 edge coins).
//
// This is the only translation unit in the tree compiled with -mavx512f
// -mavx512dq (CMakeLists sets it per-file), so nothing here may be visible
// inline to other TUs — see kernels_internal.h. When the toolchain cannot
// build AVX-512 the #else branch forwards every symbol to the scalar
// reference, so the link never breaks and dispatch.cc reports the tier
// unavailable. The tier's other kernels run the AVX2 bodies (coin_kernels.cc).
//
// Bit-identity notes (the contract tests in tests/simd/ depend on these):
//  * Mix64Vec reproduces common/rng.h's Mix64 lane-for-lane with the native
//    64-bit low multiply (vpmullq, AVX-512DQ) — the instruction whose absence
//    makes the AVX2 tier assemble it from 32-bit partial products.
//  * The survivor compare is the unsigned vpcmpuq; both operands are
//    < 2^53 anyway (hash >> 11 and CoinThreshold's range).
//  * Lane j of block b is world 8b + j, so a block's 8-bit compare mask lands
//    at bits [8b, 8b + 8) of the result with no reordering.

#include "simd/coin_kernels.h"
#include "simd/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace vulnds::simd::internal {

bool Avx512Compiled() { return true; }

namespace {

// Worlds per block: one u64 lane each.
constexpr int kLanes = 8;

// Eight u64 lanes as a vector-extension type: its shifts, xors, adds and
// 64-bit multiplies compile to vpsrlq, vpxorq, vpaddq and vpmullq. (GCC 12's
// _mm512_srli_epi64 trips -Wuninitialized inside its own header.)
typedef uint64_t U64x8 __attribute__((vector_size(64)));

// Mix64(x) per lane, bit-identical to common/rng.h.
inline U64x8 Mix64Vec(U64x8 z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The hits among `lanes` of one block: lane j is set iff it is in `lanes`
// and (Mix64(inner ^ seeds[j]) >> 11) < threshold.
inline __mmask8 CoinBlockMask(const uint64_t* seeds, U64x8 inner_v,
                              U64x8 thr_v, __mmask8 lanes) {
  const U64x8 seed_v = reinterpret_cast<U64x8>(_mm512_loadu_si512(seeds));
  const U64x8 hash = Mix64Vec(inner_v ^ seed_v) >> 11;
  return _mm512_mask_cmplt_epu64_mask(lanes, reinterpret_cast<__m512i>(hash),
                                      reinterpret_cast<__m512i>(thr_v));
}

}  // namespace

uint64_t CoinMask64Avx512(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold) {
  // Eight independent blocks: only the OR into `hits` is carried, so the
  // multiply chains of successive blocks overlap.
  const U64x8 inner_v = U64x8{} + inner;
  const U64x8 thr_v = U64x8{} + threshold;
  uint64_t hits = 0;
  for (int b = 0; b < static_cast<int>(kCoinMaskWorlds) / kLanes; ++b) {
    hits |= static_cast<uint64_t>(
                CoinBlockMask(seeds + b * kLanes, inner_v, thr_v, 0xFF))
            << (b * kLanes);
  }
  return hits;
}

OpenHits CoinMaskOpen64Avx512(const uint64_t* seeds, uint64_t inner,
                              uint64_t threshold, uint64_t open) {
  // One masked block per non-zero byte of `open`, lowest byte first. The
  // blocks are independent, like CoinMask64Avx512's.
  const U64x8 inner_v = U64x8{} + inner;
  const U64x8 thr_v = U64x8{} + threshold;
  uint64_t hits = 0;
  uint64_t evaluated = 0;
  for (uint64_t bits = open; bits != 0; evaluated += kLanes) {
    const int shift = __builtin_ctzll(bits) & ~(kLanes - 1);
    const auto lanes = static_cast<__mmask8>(bits >> shift);
    hits |= static_cast<uint64_t>(
                CoinBlockMask(seeds + shift, inner_v, thr_v, lanes))
            << shift;
    bits &= ~(uint64_t{0xFF} << shift);
  }
  return {hits, evaluated};
}

}  // namespace vulnds::simd::internal

#else  // no AVX-512F/DQ: forward to the scalar reference so the link holds.

namespace vulnds::simd::internal {

bool Avx512Compiled() { return false; }

uint64_t CoinMask64Avx512(const uint64_t* seeds, uint64_t inner,
                          uint64_t threshold) {
  return CoinMask64Scalar(seeds, inner, threshold);
}

OpenHits CoinMaskOpen64Avx512(const uint64_t* seeds, uint64_t inner,
                              uint64_t threshold, uint64_t open) {
  CoinKernelStats stats;
  const uint64_t hits =
      CoinMaskOpen64(SimdTier::kScalar, seeds, inner, threshold, open, &stats);
  return {hits, stats.tail_coins};
}

}  // namespace vulnds::simd::internal

#endif  // __AVX512F__ && __AVX512DQ__
