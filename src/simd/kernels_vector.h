// The vector kernels, each written once over a GCC vector-extension type V
// of uint64_t lanes (kLanes<V> of them) and instantiated by the ISA files:
// kernels_avx2.cc at 4 lanes, kernels_avx512.cc at 8. Below(a, b), the ISA
// file's compare-to-bitmask helper, sets bit i iff a[i] < b[i] over signed
// lanes. Everything here has internal linkage (kernels_internal.h's ODR
// rule).
//
// Bit-identity notes (the contract tests in tests/simd/ depend on these):
//  * Mix64Vec is common/rng.h's Mix64 lane for lane. Where the ISA has no
//    64-bit low multiply (AVX2), GCC builds it from 32 × 32 → 64 partial
//    products, exact mod 2^64 like Mix64's wrapping multiply.
//  * The coin compare is signed, which AVX2 needs: both operands are below
//    2^53 (hash >> 11 and CoinThreshold's range), far from the sign bit.
//  * Lane i of a block starting at slot (or world) s is bit s + i of its
//    mask, and masks are walked lowest bit first, so survivors come out in
//    ascending order: BFS pushes neighbors in the scalar visitation order.

#ifndef VULNDS_SIMD_KERNELS_VECTOR_H_
#define VULNDS_SIMD_KERNELS_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "simd/coin_kernels.h"
#include "simd/kernels_internal.h"

namespace vulnds::simd::internal {
namespace {

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(uint64_t);

// The signed lane type a compare of V yields; Below takes two of them.
template <typename V>
using Signed = decltype(V{} < V{});

template <typename V, typename T>
V Load(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Mix64(x) per lane.
template <typename V>
V Mix64Vec(V z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The hits of one block: bit i set iff (Mix64(x[i]) >> 11) < threshold[i].
template <typename V, auto Below>
uint64_t CoinBits(V x, V threshold) {
  return Below(reinterpret_cast<Signed<V>>(Mix64Vec(x) >> 11),
               reinterpret_cast<Signed<V>>(threshold));
}

// Writes base + i for each set bit i of `mask`, lowest first, from
// out[found]; returns the new count.
inline std::size_t Emit(uint64_t mask, std::size_t base, uint32_t* out,
                        std::size_t found) {
  for (; mask != 0; mask &= mask - 1) {
    out[found++] = static_cast<uint32_t>(base + __builtin_ctzll(mask));
  }
  return found;
}

// The hits of blocks K... of a coin run, block k at bits [k, k + 1) × lanes.
template <typename V, auto Below, std::size_t... K>
uint64_t RunBits(std::index_sequence<K...>, V seed_v, const uint64_t* inner,
                 const uint64_t* threshold) {
  constexpr std::size_t kL = kLanes<V>;
  return ((CoinBits<V, Below>(Load<V>(inner + K * kL) ^ seed_v,
                              Load<V>(threshold + K * kL))
           << (K * kL)) |
          ...);
}

template <typename V, auto Below>
std::size_t CoinSurvivorsVec(uint64_t seed, const uint64_t* inner,
                             const uint64_t* threshold, std::size_t n,
                             uint32_t* out, CoinKernelStats* stats) {
  constexpr std::size_t kL = kLanes<V>;
  static_assert(kCoinLanes % kL == 0, "coin columns pad runs to kCoinLanes");
  const V seed_v = V{} + seed;
  // The padded slots in [n, blocks × kL) carry threshold 0 and never
  // survive, so rounding up leaves no scalar tail.
  const std::size_t blocks = (n + kL - 1) / kL;
  std::size_t found = 0;
  std::size_t b = 0;
  // One block is a ~25-cycle chain of two dependent multiply rounds. Four,
  // then two, then one independent blocks in flight keep the multiply ports
  // busy; without the two-block step, runs of 12 cost 22% more (4 lanes,
  // GCC 12 -O2, a 4-core AVX-512 x86-64 VM).
  const auto step = [&]<std::size_t... K>(std::index_sequence<K...> run) {
    const std::size_t base = b * kL;
    found = Emit(RunBits<V, Below>(run, seed_v, inner + base,
                                   threshold + base),
                 base, out, found);
    b += sizeof...(K);
  };
  while (b + 4 <= blocks) step(std::make_index_sequence<4>{});
  if (b + 2 <= blocks) step(std::make_index_sequence<2>{});
  if (b < blocks) step(std::make_index_sequence<1>{});
  if (stats != nullptr) stats->batched_coins += blocks * kL;
  return found;
}

// The blocks are independent (only the shift-or into `hits` is carried), so
// their multiply chains overlap. Walking them from the top world down keeps
// the shift a constant.
template <typename V, auto Below>
uint64_t CoinMask64Vec(const uint64_t* seeds, uint64_t inner,
                       uint64_t threshold) {
  const V inner_v = V{} + inner;
  const V thr_v = V{} + threshold;
  uint64_t hits = 0;
  for (std::size_t w = kCoinMaskWorlds; w != 0;) {
    w -= kLanes<V>;
    hits = hits << kLanes<V> |
           CoinBits<V, Below>(inner_v ^ Load<V>(seeds + w), thr_v);
  }
  return hits;
}

// The open worlds of all `words` words in three passes. Pack: per word,
// each lane-sized group of world seeds is compressed under its byte of
// `open` and stored at the running offset, so coin i of the arc sits at
// packed[i]. Hash: ceil(coins / lanes) full blocks, one hit byte each, bit
// i of the hit string for coin i. Deposit: each word's window of the hit
// string goes back to its open bits. Compress(m, v) moves the lanes of v
// selected by mask m to the low lanes, zeroing the rest; Deposit(x, m) is
// pdep, bit i of x to the i-th set bit of m.
template <typename V, auto Below, auto Compress, auto Deposit>
OpenCoins CoinMaskOpenWordsVec(const uint64_t* seeds, uint64_t inner,
                               uint64_t threshold, const uint64_t* open,
                               std::size_t words, uint64_t* hits) {
  constexpr std::size_t kL = kLanes<V>;
  static_assert(kL == 8, "one hit byte per block");
  constexpr uint64_t kGroup = (uint64_t{1} << kL) - 1;
  // One spare block: a group's store and the zero block past the last coin
  // may reach kL slots beyond the coins.
  uint64_t packed[kCoinOpenMaxWords * kCoinMaskWorlds + kL];
  std::size_t coins = 0;
  for (std::size_t w = 0; w < words; ++w) {
    if (open[w] == 0) continue;
    for (std::size_t g = 0; g < kCoinMaskWorlds; g += kL) {
      const unsigned m = static_cast<unsigned>(open[w] >> g & kGroup);
      const V v = Compress(m, Load<V>(seeds + w * kCoinMaskWorlds + g));
      __builtin_memcpy(packed + coins, &v, sizeof(v));
      coins += static_cast<std::size_t>(__builtin_popcount(m));
    }
  }
  // The last block's lanes past `coins` hash zeros, not stale stack.
  const V zero{};
  __builtin_memcpy(packed + coins, &zero, sizeof(zero));

  // One spare word: a window may straddle the last written one.
  uint64_t hit_string[kCoinOpenMaxWords + 1] = {};
  unsigned char* hit_bytes = reinterpret_cast<unsigned char*>(hit_string);
  const V inner_v = V{} + inner;
  const V thr_v = V{} + threshold;
  const std::size_t blocks = (coins + kL - 1) / kL;
  for (std::size_t b = 0; b < blocks; ++b) {
    hit_bytes[b] = static_cast<unsigned char>(
        CoinBits<V, Below>(inner_v ^ Load<V>(packed + b * kL), thr_v));
  }

  std::size_t offset = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t word = offset / 64;
    const unsigned shift = offset % 64;
    const unsigned __int128 pair =
        static_cast<unsigned __int128>(hit_string[word + 1]) << 64 |
        hit_string[word];
    hits[w] = Deposit(static_cast<uint64_t>(pair >> shift), open[w]);
    offset += static_cast<std::size_t>(__builtin_popcountll(open[w]));
  }
  return {coins, blocks * kL};
}

template <typename V>
void HashBatchVec(uint64_t seed, uint64_t base, std::size_t n, uint64_t* out,
                  CoinKernelStats* stats) {
  const V seed_v = V{} + seed;
  V lane{};
  for (std::size_t i = 0; i < kLanes<V>; ++i) lane[i] = i;
  const std::size_t done = n / kLanes<V> * kLanes<V>;
  // Hash64(id) = Mix64(Mix64(id + C) ^ seed): the "+ C" of the inner round
  // comes on top of Mix64Vec's own, folded into the lane base with the same
  // wraparound as the scalar CoinInnerHash(base + i). The blocks are
  // independent, so their chains overlap.
  for (std::size_t i = 0; i < done; i += kLanes<V>) {
    const V h =
        Mix64Vec(Mix64Vec(lane + (base + i + 0x9E3779B97F4A7C15ULL)) ^ seed_v);
    __builtin_memcpy(out + i, &h, sizeof(h));
  }
  if (stats != nullptr) stats->batched_coins += done;
  HashBatchScalar(seed, base + done, n - done, out + done, stats);
}

// B is a vector of unsigned bytes. Zeros(v) sets bit i iff v[i] == 0, in an
// integer exactly as wide as B has lanes.
template <typename B, auto Zeros>
std::size_t FindActiveVec(const unsigned char* flags,
                          const unsigned char* veto, std::size_t n,
                          uint32_t* out) {
  const std::size_t done = n / sizeof(B) * sizeof(B);
  std::size_t found = 0;
  for (std::size_t base = 0; base < done; base += sizeof(B)) {
    auto active = ~Zeros(Load<B>(flags + base));
    if (veto != nullptr) active &= Zeros(Load<B>(veto + base));
    found = Emit(active, base, out, found);
  }
  const std::size_t tail =
      FindActiveScalar(flags + done, veto == nullptr ? nullptr : veto + done,
                       n - done, out + found);
  for (std::size_t i = found; i < found + tail; ++i) {
    out[i] += static_cast<uint32_t>(done);
  }
  return found + tail;
}

}  // namespace
}  // namespace vulnds::simd::internal

#endif  // VULNDS_SIMD_KERNELS_VECTOR_H_
