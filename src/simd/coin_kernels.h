// Batched possible-world kernels: the five hot loops of the sampling
// pipeline (BSRBK's per-world coin evaluation, the block kernel's 64-world
// self-risk seeding and its per-arc edge coins over the open worlds,
// bottom-k hash precompute, candidate-bitmap folds) behind a
// tier-dispatched, bit-identical-by-contract interface.
//
// Each vector kernel has one body, in kernels_vector.h, instantiated per
// tier at its lane count. What each tier runs:
//   scalar  nothing vectorized; the reference every other tier is tested
//           against.
//   avx2    CoinSurvivorsPadded, CoinMask64, HashBatch and FindActive at
//           four u64 lanes (FindActive: 32 bytes); CoinMaskOpenWords stays
//           the scalar per-bit loop.
//   avx512  CoinMask64 and CoinMaskOpenWords at eight u64 lanes, with the
//           native 64-bit multiply (vpmullq); CoinMaskOpenWords packs the
//           open worlds into full lanes with vpcompressq and deposits the
//           hits back with pdep (BMI2). The other three run at four lanes
//           from the avx2 build, so BSRBK executes the same instructions
//           under avx512 as under avx2.
//
// The determinism contract. A world coin is the predicate
//
//   UniformHash(seed).HashUnit(id) < prob
//     where Hash64(id)  = Mix64(Mix64(id + 0x9E3779B97F4A7C15) ^ seed)
//           HashUnit(id) = (double(Hash64(id) >> 11) + 0.5) * 2^-53
//
// (reverse_sampler.cc's WorldEdgeSurvives / WorldNodeSelfDefaults modulo
// their 0/1 early-outs). The kernels never evaluate the double comparison:
// CoinThreshold(prob) precomputes the exact integer T such that
//
//   HashUnit < prob  ⟺  (Hash64 >> 11) < T        for every hash value,
//
// which holds because x ↦ (double(x) + 0.5) * 2^-53 is non-decreasing over
// x ∈ [0, 2^53) — the survivor set of any prob is a down-set {x < T}. The
// early-outs fold in exactly: prob <= 0 (and NaN, where `HashUnit < prob`
// is false) maps to T = 0, prob >= 1 to T = 2^53 > every hash. Likewise the
// seed-independent inner round Mix64(id + C) is precomputed per entity
// (CoinInnerHash), so a per-world coin is one Mix64 and one integer compare
// in every tier. The vector tiers evaluate the identical integer arithmetic
// four or eight lanes at a time; tests/simd/ proves tier-for-tier
// bit-identity.
//
// Evaluating a coin is free of side effects (worlds are pure functions), so
// batched callers may evaluate MORE coins than the scalar code would have —
// e.g. for already-visited BFS neighbors, or for alignment padding slots
// whose threshold is 0 (never survive) — without changing any result.

#ifndef VULNDS_SIMD_COIN_KERNELS_H_
#define VULNDS_SIMD_COIN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "simd/dispatch.h"
#include "simd/kernels_internal.h"

namespace vulnds::simd {

/// The u64 lane width CoinSurvivorsPadded runs at (AVX2: 4 × u64, which
/// the avx512 tier shares). Callers that pad coin columns pad runs to a
/// multiple of this.
inline constexpr std::size_t kCoinLanes = 4;

/// One past the largest value Hash64(id) >> 11 can take; the threshold of
/// prob >= 1 ("always survives").
inline constexpr uint64_t kCoinAlways = uint64_t{1} << 53;

/// Per-run kernel telemetry, accumulated by the caller with plain integers
/// (no atomics on the hot path) and published once per run. Batched counts
/// coin slots evaluated inside full vector lanes — including alignment
/// padding slots, which is why it can exceed the true coin count — and tail
/// counts coins evaluated one at a time (the scalar tier counts everything
/// here). Telemetry only: totals vary with the tier like worlds_wasted
/// varies with the schedule, and are never part of a result payload.
struct CoinKernelStats {
  std::uint64_t batched_coins = 0;
  std::uint64_t tail_coins = 0;

  void Add(const CoinKernelStats& other) {
    batched_coins += other.batched_coins;
    tail_coins += other.tail_coins;
  }
};

/// The exact integer threshold of `prob`: the unique T ∈ [0, 2^53] with
///   (double(x) + 0.5) * 2^-53 < prob  ⟺  x < T   for all x ∈ [0, 2^53).
/// prob <= 0 and NaN yield 0 (never), prob >= 1 yields kCoinAlways.
uint64_t CoinThreshold(double prob);

/// The seed-independent inner hash round of entity `id`:
/// Mix64(id + 0x9E3779B97F4A7C15), so that
/// UniformHash(seed).Hash64(id) == Mix64(CoinInnerHash(id) ^ seed).
inline uint64_t CoinInnerHash(uint64_t id) {
  return Mix64(id + 0x9E3779B97F4A7C15ULL);
}

/// One precomputed coin, scalar: does the entity survive under `seed`?
inline bool CoinHits(uint64_t seed, uint64_t inner, uint64_t threshold) {
  return (Mix64(inner ^ seed) >> 11) < threshold;
}

/// Evaluates `n` precomputed coins under `seed` and writes the indices of
/// the survivors into `out` (capacity >= n) in ascending order; returns the
/// survivor count. Requires the columns to be readable (and the thresholds
/// zero — never survive) through the next multiple of kCoinLanes past n, as
/// CoinColumns guarantees per adjacency run. The AVX2 tier then runs pure
/// full-width blocks with no scalar tail, which is the difference between
/// winning and losing on low-degree graphs.
std::size_t CoinSurvivorsPadded(SimdTier tier, uint64_t seed,
                                const uint64_t* inner,
                                const uint64_t* threshold, std::size_t n,
                                uint32_t* out, CoinKernelStats* stats);

/// The worlds one CoinMask64 call evaluates: one per bit of its mask.
inline constexpr std::size_t kCoinMaskWorlds = 64;

/// One entity's coin under 64 world seeds: bit j of the result is set iff
/// CoinHits(seeds[j], inner, threshold). All 64 seeds are read, so a caller
/// with fewer live worlds masks the result (the extra coins are pure and
/// harmless to evaluate). The block kernel's self-risk seeding runs here.
uint64_t CoinMask64(SimdTier tier, const uint64_t* seeds, uint64_t inner,
                    uint64_t threshold);

/// The most 64-world words one CoinMaskOpenWords call takes: the block
/// kernel's widest node visit, 256 worlds.
inline constexpr std::size_t kCoinOpenMaxWords = 4;

/// One entity's coin in the `open` worlds of `words` <= kCoinOpenMaxWords
/// 64-world words: writes hits[w] = the bits j of open[w] with
/// CoinHits(seeds[64 * w + j], inner, threshold), a subset of open[w], and
/// returns the number of open worlds (the popcount of open[0..words)). All
/// 64 * words seeds must be readable; only the open worlds' seeds affect the
/// result. The block kernel's edge coins run here, one call per arc per
/// visit. The scalar and AVX2 tiers flip one coin per open bit, word by
/// word (counted as tail coins). The AVX-512 tier packs the open worlds'
/// seeds of all the words into dense eight-lane blocks and hashes
/// ceil(open / 8) of them (counted as eight batched coins each). `stats` may
/// be null.
///
/// Inline, and `stats` never escapes it, so a caller counting into a local
/// keeps the per-bit loop and its count in registers. Out of line, with the
/// count kept in memory, the AVX2 tier's N cost ~3% more on the Fig. 6
/// grid. The ISA-specific TUs must not call it (kernels_internal.h's ODR
/// rule).
inline uint64_t CoinMaskOpenWords(SimdTier tier, const uint64_t* seeds,
                                  uint64_t inner, uint64_t threshold,
                                  const uint64_t* open, std::size_t words,
                                  uint64_t* hits, CoinKernelStats* stats) {
  if (tier == SimdTier::kAvx512) {
    const internal::OpenCoins r =
        internal::kAvx512Kernels.coin_mask_open_words(seeds, inner, threshold,
                                                       open, words, hits);
    if (stats != nullptr) stats->batched_coins += r.lanes;
    return r.coins;
  }
  uint64_t coins = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const uint64_t* word_seeds = seeds + w * kCoinMaskWorlds;
    uint64_t word_hits = 0;
    for (uint64_t bits = open[w]; bits != 0; bits &= bits - 1) {
      const int j = __builtin_ctzll(bits);
      word_hits |=
          static_cast<uint64_t>(CoinHits(word_seeds[j], inner, threshold))
          << j;
      ++coins;
    }
    hits[w] = word_hits;
  }
  if (stats != nullptr) stats->tail_coins += coins;
  return coins;
}

/// out[i] = UniformHash(seed).Hash64(base + i) for i in [0, n): the bulk
/// half of the bottom-k HashUnit precompute (the >>11 / +0.5 / *2^-53
/// conversion stays scalar at the call site — it is exact, cheap, and AVX2
/// has no u64→f64 convert to get wrong). `stats` may be null.
void HashBatch(SimdTier tier, uint64_t seed, uint64_t base, std::size_t n,
               uint64_t* out, CoinKernelStats* stats);

/// Writes the ascending indices i ∈ [0, n) with flags[i] != 0 and
/// (veto == nullptr || veto[i] == 0) into `out` (capacity >= n); returns the
/// count. The vectorized form of the bottom-k fold's per-candidate scan
/// `if (!defaulted[c] || reached_bk[c]) continue;`.
std::size_t FindActive(SimdTier tier, const unsigned char* flags,
                       const unsigned char* veto, std::size_t n,
                       uint32_t* out);

}  // namespace vulnds::simd

#endif  // VULNDS_SIMD_COIN_KERNELS_H_
