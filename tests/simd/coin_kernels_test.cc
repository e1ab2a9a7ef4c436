// Property tests of the tier-for-tier bit-identity contract: every kernel,
// compared lane against the scalar reference (and against the pre-existing
// double-comparison coin semantics) across lane alignments, tail lengths and
// degenerate probabilities. When the host lacks AVX2 or AVX-512 only the
// tiers it has are exercised — the loops below iterate the AVAILABLE tiers,
// so the suite passes (rather than vacuously skips) everywhere. Checks that
// only mean something on one tier skip where the CPU lacks it.

#include "simd/coin_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "simd/dispatch.h"
#include "simd/kernels_internal.h"

namespace vulnds::simd {
namespace {

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (Avx2Available()) tiers.push_back(SimdTier::kAvx2);
  if (Avx512Available()) tiers.push_back(SimdTier::kAvx512);
  return tiers;
}

// (double(x) + 0.5) * 2^-53: the exact HashUnit conversion of a 53-bit hash.
double UnitOf(uint64_t x) {
  return (static_cast<double>(x) + 0.5) * 0x1.0p-53;
}

// The probabilities most likely to break an integer-threshold conversion:
// the 0/1 early-outs, NaN, values straddling representability boundaries,
// and exact HashUnit outputs (where < must stay strict).
std::vector<double> AdversarialProbs() {
  std::vector<double> probs = {
      0.0,
      -0.0,
      -1.0,
      1.0,
      1.5,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(0.0, 1.0),
      std::nextafter(1.0, 0.0),
      std::nextafter(1.0, 2.0),
      0x1.0p-53,
      0x1.0p-54,
      0.5,
      std::nextafter(0.5, 0.0),
      std::nextafter(0.5, 1.0),
  };
  // Exact HashUnit values and their neighbors, across the magnitude range
  // (including x >= 2^52 where double(x) + 0.5 rounds to even).
  for (const uint64_t x :
       {uint64_t{0}, uint64_t{1}, uint64_t{12345}, uint64_t{1} << 32,
        (uint64_t{1} << 52) - 1, uint64_t{1} << 52, (uint64_t{1} << 52) + 1,
        (uint64_t{1} << 53) - 2, (uint64_t{1} << 53) - 1}) {
    const double u = UnitOf(x);
    probs.push_back(u);
    probs.push_back(std::nextafter(u, 0.0));
    probs.push_back(std::nextafter(u, 2.0));
  }
  Rng rng(0xC01Fu);
  for (int i = 0; i < 200; ++i) probs.push_back(rng.NextDouble());
  return probs;
}

TEST(CoinThresholdTest, ExactlyCharacterizesTheDoublePredicate) {
  for (const double prob : AdversarialProbs()) {
    const uint64_t t = CoinThreshold(prob);
    ASSERT_LE(t, kCoinAlways);
    if (std::isnan(prob) || prob <= 0.0) {
      EXPECT_EQ(t, 0u) << prob;
      continue;
    }
    if (prob >= 1.0) {
      EXPECT_EQ(t, kCoinAlways) << prob;
      continue;
    }
    // T is the unique boundary of the down-set {x : UnitOf(x) < prob}.
    if (t > 0) {
      EXPECT_LT(UnitOf(t - 1), prob) << prob;
    }
    if (t < kCoinAlways) {
      EXPECT_FALSE(UnitOf(t) < prob) << prob;
    }
  }
}

TEST(CoinHitsTest, MatchesTheUniformHashDoubleComparison) {
  Rng rng(0x5EEDu);
  const std::vector<double> probs = AdversarialProbs();
  for (int round = 0; round < 50; ++round) {
    const uint64_t seed = rng.NextU64();
    const UniformHash hash(seed);
    for (const double prob : probs) {
      const uint64_t threshold = CoinThreshold(prob);
      const uint64_t id = rng.NextU64();
      const bool reference =
          !std::isnan(prob) && hash.HashUnit(id) < prob;
      EXPECT_EQ(CoinHits(seed, CoinInnerHash(id), threshold), reference)
          << "seed=" << seed << " id=" << id << " prob=" << prob;
    }
  }
}

// Every run length from empty through two full vector blocks plus every
// possible tail, and a couple of longer ones.
std::vector<std::size_t> RunLengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 2 * kCoinLanes + 1; ++n) lengths.push_back(n);
  lengths.push_back(3 * kCoinLanes);
  lengths.push_back(37);
  lengths.push_back(100);
  return lengths;
}

struct CoinRun {
  std::vector<uint64_t> inner;
  std::vector<uint64_t> threshold;
};

CoinRun MakeRun(Rng* rng, std::size_t n, std::size_t padded_capacity) {
  CoinRun run;
  run.inner.assign(padded_capacity, 0);
  run.threshold.assign(padded_capacity, 0);
  for (std::size_t i = 0; i < n; ++i) {
    run.inner[i] = CoinInnerHash(rng->NextU64());
    // Mix degenerate thresholds (never / always) in with real ones.
    const uint64_t kind = rng->NextBounded(4);
    if (kind == 0) {
      run.threshold[i] = 0;
    } else if (kind == 1) {
      run.threshold[i] = kCoinAlways;
    } else {
      run.threshold[i] = CoinThreshold(rng->NextDouble());
    }
  }
  return run;
}

TEST(CoinSurvivorsTest, EveryTierMatchesScalarOnEveryTailLength) {
  // Each tier's padded kernel against the scalar reference, on columns
  // padded (threshold 0) to the next multiple of kCoinLanes.
  Rng rng(0xFACEu);
  const std::vector<SimdTier> tiers = AvailableTiers();
  for (const std::size_t n : RunLengths()) {
    const std::size_t padded = ((n + kCoinLanes - 1) / kCoinLanes) * kCoinLanes;
    for (int round = 0; round < 20; ++round) {
      const CoinRun run = MakeRun(&rng, n, padded);
      const uint64_t seed = rng.NextU64();
      std::vector<uint32_t> reference(n + 1, 0xDEAD);
      const std::size_t reference_count = internal::CoinSurvivorsScalar(
          seed, run.inner.data(), run.threshold.data(), n, reference.data(),
          nullptr);
      ASSERT_LE(reference_count, n);
      for (const SimdTier tier : tiers) {
        std::vector<uint32_t> out(n + 1, 0xBEEF);
        CoinKernelStats stats;
        const std::size_t count =
            CoinSurvivorsPadded(tier, seed, run.inner.data(),
                                run.threshold.data(), n, out.data(), &stats);
        ASSERT_EQ(count, reference_count) << "tier=" << SimdTierName(tier)
                                          << " n=" << n;
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], reference[i]) << "tier=" << SimdTierName(tier)
                                          << " n=" << n << " i=" << i;
        }
        // Telemetry accounts every evaluated coin exactly once in some
        // bucket: the scalar tier evaluates the n true coins, the 4-lane body
        // (which the avx512 tier shares) whole blocks, padding included.
        EXPECT_EQ(stats.batched_coins + stats.tail_coins,
                  tier == SimdTier::kScalar ? n : padded)
            << "tier=" << SimdTierName(tier) << " n=" << n;
      }
    }
  }
}

TEST(CoinSurvivorsPaddedTest, MatchesUnpaddedOnTheTrueLength) {
  // Padding slots carry threshold 0 but arbitrary hashes: no tier may report
  // one of them as a survivor, and each matches the scalar reference run on
  // the true length alone.
  Rng rng(0xBA5Eu);
  const std::vector<SimdTier> tiers = AvailableTiers();
  for (const std::size_t n : RunLengths()) {
    const std::size_t padded = ((n + kCoinLanes - 1) / kCoinLanes) * kCoinLanes;
    for (int round = 0; round < 20; ++round) {
      CoinRun run = MakeRun(&rng, n, padded);
      for (std::size_t i = n; i < padded; ++i) {
        run.inner[i] = CoinInnerHash(rng.NextU64());
      }
      const uint64_t seed = rng.NextU64();
      std::vector<uint32_t> reference(n + 1, 0);
      const std::size_t reference_count = internal::CoinSurvivorsScalar(
          seed, run.inner.data(), run.threshold.data(), n, reference.data(),
          nullptr);
      for (const SimdTier tier : tiers) {
        std::vector<uint32_t> out(padded + 1, 0);
        CoinKernelStats stats;
        const std::size_t count =
            CoinSurvivorsPadded(tier, seed, run.inner.data(),
                                run.threshold.data(), n, out.data(), &stats);
        ASSERT_EQ(count, reference_count) << "tier=" << SimdTierName(tier)
                                          << " n=" << n;
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], reference[i]);
          EXPECT_LT(out[i], n);
        }
      }
    }
  }
}

TEST(CoinMask64Test, EveryTierMatchesPerWorldCoinHits) {
  Rng rng(0xC0A1u);
  const std::vector<SimdTier> tiers = AvailableTiers();
  std::vector<uint64_t> thresholds = {0, 1, kCoinAlways - 1, kCoinAlways};
  for (int i = 0; i < 20; ++i) {
    thresholds.push_back(CoinThreshold(rng.NextDouble()));
  }
  for (int round = 0; round < 50; ++round) {
    uint64_t seeds[kCoinMaskWorlds];
    for (uint64_t& seed : seeds) seed = rng.NextU64();
    const uint64_t inner = CoinInnerHash(rng.NextU64());
    for (const uint64_t threshold : thresholds) {
      uint64_t reference = 0;
      for (std::size_t j = 0; j < kCoinMaskWorlds; ++j) {
        if (CoinHits(seeds[j], inner, threshold)) reference |= uint64_t{1} << j;
      }
      for (const SimdTier tier : tiers) {
        EXPECT_EQ(CoinMask64(tier, seeds, inner, threshold), reference)
            << "tier=" << SimdTierName(tier) << " threshold=" << threshold;
      }
    }
  }
}

// The open masks most likely to break a byte-blocked kernel: empty, full,
// every single bit, partial words (the low `worlds` bits of a word's last
// block), one bit per byte, whole bytes, and random masks of every density.
std::vector<uint64_t> AdversarialOpenMasks(Rng* rng) {
  std::vector<uint64_t> masks = {0, ~uint64_t{0}, 0x0101010101010101ULL,
                                 0x8080808080808080ULL, 0xFF00FF00FF00FF00ULL,
                                 0x00000000000000FFULL, 0xFF00000000000000ULL,
                                 0x8000000000000001ULL};
  for (int j = 0; j < 64; ++j) {
    masks.push_back(uint64_t{1} << j);
    masks.push_back((uint64_t{1} << j) - 1);  // a partial word of j worlds
  }
  for (int i = 0; i < 64; ++i) {
    // AND-ing k random words leaves each bit set with probability 2^-k.
    uint64_t m = rng->NextU64();
    for (int k = 0; k < i % 5; ++k) m &= rng->NextU64();
    masks.push_back(m);
  }
  return masks;
}

// Open words for a CoinMaskOpenWords call of `words` words, each built from
// AdversarialOpenMasks: every mask in every word position with the other
// words empty (all-zero words before and after a non-zero one), every mask
// in every word with its neighbours full or holding only bits 0 and 63, and
// random pairings of sparse and dense masks in every position.
std::vector<std::vector<uint64_t>> AdversarialOpenWords(
    const std::vector<uint64_t>& masks, std::size_t words, Rng* rng) {
  std::vector<std::vector<uint64_t>> sets;
  const uint64_t fills[] = {0, ~uint64_t{0}, 0x8000000000000001ULL};
  for (const uint64_t fill : fills) {
    for (std::size_t w = 0; w < words; ++w) {
      for (const uint64_t m : masks) {
        std::vector<uint64_t> open(words, fill);
        open[w] = m;
        sets.push_back(std::move(open));
      }
    }
  }
  for (std::size_t i = 0; i < masks.size(); ++i) {
    std::vector<uint64_t> open(words);
    for (uint64_t& o : open) o = masks[rng->NextBounded(masks.size())];
    if (words > 2) open[1] = 0;  // an empty word between two others
    sets.push_back(std::move(open));
  }
  return sets;
}

// Every tier returns the per-bit CoinHits of every open world of 1 to 4
// words, reports the open-coin count, and counts its lanes: one tail coin
// per open world on the per-bit tiers, whole eight-lane blocks on AVX-512.
TEST(CoinMaskOpenWordsTest, EveryTierMatchesCoinHitsPerOpenBit) {
  Rng rng(0x0BE4u);
  const std::vector<SimdTier> tiers = AvailableTiers();
  const std::vector<uint64_t> masks = AdversarialOpenMasks(&rng);
  constexpr std::size_t kMaxWorlds = kCoinOpenMaxWords * kCoinMaskWorlds;
  for (int round = 0; round < 4; ++round) {
    uint64_t seeds[kMaxWorlds];
    for (uint64_t& seed : seeds) seed = rng.NextU64();
    const uint64_t inner = CoinInnerHash(rng.NextU64());
    // 0 and kCoinAlways, the values next to them, the middle, random
    // thresholds, and the boundary of one world's hash h: threshold h misses
    // it, h + 1 hits.
    std::vector<uint64_t> thresholds = {0, 1, kCoinAlways / 2,
                                        kCoinAlways - 1, kCoinAlways};
    for (int i = 0; i < 2; ++i) {
      thresholds.push_back(CoinThreshold(rng.NextDouble()));
      const uint64_t h = Mix64(inner ^ seeds[rng.NextBounded(kMaxWorlds)]) >> 11;
      thresholds.push_back(h);
      thresholds.push_back(h + 1);
    }
    for (std::size_t words = 1; words <= kCoinOpenMaxWords; ++words) {
      for (const std::vector<uint64_t>& open :
           AdversarialOpenWords(masks, words, &rng)) {
        uint64_t total = 0;
        for (const uint64_t o : open) total += __builtin_popcountll(o);
        for (const uint64_t threshold : thresholds) {
          uint64_t reference[kCoinOpenMaxWords] = {};
          for (std::size_t w = 0; w < words; ++w) {
            for (std::size_t j = 0; j < kCoinMaskWorlds; ++j) {
              if ((open[w] >> j & 1) != 0 &&
                  CoinHits(seeds[w * kCoinMaskWorlds + j], inner, threshold)) {
                reference[w] |= uint64_t{1} << j;
              }
            }
          }
          for (const SimdTier tier : tiers) {
            CoinKernelStats stats;
            uint64_t hits[kCoinOpenMaxWords] = {~uint64_t{0}, ~uint64_t{0},
                                                ~uint64_t{0}, ~uint64_t{0}};
            ASSERT_EQ(CoinMaskOpenWords(tier, seeds, inner, threshold,
                                        open.data(), words, hits, &stats),
                      total)
                << "tier=" << SimdTierName(tier) << " words=" << words;
            for (std::size_t w = 0; w < kCoinOpenMaxWords; ++w) {
              // Words past `words` are left alone.
              ASSERT_EQ(hits[w], w < words ? reference[w] : ~uint64_t{0})
                  << "tier=" << SimdTierName(tier) << " words=" << words
                  << " word=" << w << " threshold=" << threshold
                  << " open=" << std::hex << open[std::min(w, words - 1)];
            }
            if (tier == SimdTier::kAvx512) {
              EXPECT_EQ(stats.batched_coins, (total + 7) / 8 * 8);
              EXPECT_EQ(stats.tail_coins, 0u);
            } else {
              EXPECT_EQ(stats.batched_coins, 0u);
              EXPECT_EQ(stats.tail_coins, total);
            }
            EXPECT_EQ(CoinMaskOpenWords(tier, seeds, inner, threshold,
                                        open.data(), words, hits, nullptr),
                      total);
          }
        }
      }
    }
  }
}

// The AVX-512 tier packs the open worlds of all the words into full
// blocks: 73 open worlds spread over four words take ten blocks (80 lanes),
// where one block per non-empty byte would take 18 (144 lanes).
TEST(CoinMaskOpenWordsTest, Avx512PacksOpenWorldsAcrossWords) {
  if (!Avx512Available()) {
    GTEST_SKIP() << "host or build lacks AVX-512F/DQ or BMI2";
  }
  Rng rng(0xB17Eu);
  uint64_t seeds[kCoinOpenMaxWords * kCoinMaskWorlds];
  for (uint64_t& seed : seeds) seed = rng.NextU64();
  const uint64_t open[kCoinOpenMaxWords] = {
      0x0101010101010101ULL, 0x8000000000000001ULL, 0,
      0xFFFFFFFFFFFFFFFFULL & ~0x8000000000000000ULL};
  uint64_t hits[kCoinOpenMaxWords];
  CoinKernelStats stats;
  EXPECT_EQ(CoinMaskOpenWords(SimdTier::kAvx512, seeds, CoinInnerHash(7),
                              CoinThreshold(0.5), open, kCoinOpenMaxWords,
                              hits, &stats),
            8u + 2u + 63u);
  EXPECT_EQ(stats.batched_coins, 80u);
  EXPECT_EQ(stats.tail_coins, 0u);
}

TEST(HashBatchTest, MatchesUniformHashElementwise) {
  Rng rng(0x4A5Bu);
  const std::vector<SimdTier> tiers = AvailableTiers();
  // Besides a random base, bases where base + i or the folded lane base
  // base + i + 0x9E3779B97F4A7C15 wraps mod 2^64 inside the batch; the
  // scalar Hash64(base + i) wraps the same way.
  constexpr uint64_t kFoldWrap = 0 - 0x9E3779B97F4A7C15ULL;
  for (const std::size_t n : RunLengths()) {
    const uint64_t seed = rng.NextU64();
    const UniformHash hash(seed);
    for (const uint64_t base : {rng.NextU64(), uint64_t{0}, ~uint64_t{0} - 2,
                                kFoldWrap - 2, kFoldWrap + 2}) {
      for (const SimdTier tier : tiers) {
        std::vector<uint64_t> out(n + 1, 0xABAD1DEA);
        HashBatch(tier, seed, base, n, out.data(), nullptr);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], hash.Hash64(base + i))
              << "tier=" << SimdTierName(tier) << " n=" << n
              << " base=" << base << " i=" << i;
        }
      }
    }
  }
}

TEST(FindActiveTest, MatchesScalarWithAndWithoutVeto) {
  Rng rng(0xF1A6u);
  const std::vector<SimdTier> tiers = AvailableTiers();
  // Lengths straddling the 32-byte AVX2 block width and its tails.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{31},
                              std::size_t{32}, std::size_t{33}, std::size_t{64},
                              std::size_t{70}, std::size_t{100}}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<unsigned char> flags(n), veto(n);
      for (std::size_t i = 0; i < n; ++i) {
        flags[i] = static_cast<unsigned char>(rng.NextBounded(2));
        veto[i] = static_cast<unsigned char>(rng.NextBounded(2));
      }
      const unsigned char* veto_cases[] = {nullptr, veto.data()};
      for (const unsigned char* v : veto_cases) {
        std::vector<uint32_t> reference(n + 1, 0);
        const std::size_t reference_count = FindActive(
            SimdTier::kScalar, flags.data(), v, n, reference.data());
        for (const SimdTier tier : tiers) {
          std::vector<uint32_t> out(n + 1, 0);
          const std::size_t count =
              FindActive(tier, flags.data(), v, n, out.data());
          ASSERT_EQ(count, reference_count)
              << "tier=" << SimdTierName(tier) << " n=" << n
              << " veto=" << (v != nullptr);
          for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(out[i], reference[i]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vulnds::simd
