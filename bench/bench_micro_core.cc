// Micro-benchmarks (google-benchmark) for the core sampling machinery:
// per-world cost of forward (128-world blocks) vs reverse sampling, the
// block kernel's 64-world seeding coin per tier, the bound iterations,
// candidate reduction and the bottom-k sketch.

#include <benchmark/benchmark.h>

#include <numeric>

#include "common/rng.h"
#include "gen/datasets.h"
#include "simd/coin_kernels.h"
#include "simd/dispatch.h"
#include "sketch/bottom_k.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/bounds.h"
#include "vulnds/candidate_reduction.h"
#include "vulnds/reverse_sampler.h"

namespace {

using namespace vulnds;

const UncertainGraph& CitationGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kCitation, 1.0, 42).MoveValue();
  return graph;
}

const UncertainGraph& BitcoinGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kBitcoin, 1.0, 42).MoveValue();
  return graph;
}

// The P2P stand-in: the one graph whose block-kernel state and arcs exceed
// a 2 MB L2 (Citation and Bitcoin fit).
const UncertainGraph& P2PGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kP2P, 1.0, 42).MoveValue();
  return graph;
}

// One 128-world block of the forward sampler (worlds/s = items/s), serial.
// Arg: 0 = Citation, 1 = Bitcoin, 2 = P2P.
void BM_ForwardSampleBlock(benchmark::State& state) {
  constexpr std::size_t kWorlds = 128;
  const UncertainGraph& graph = state.range(0) == 0   ? CitationGraph()
                                : state.range(0) == 1 ? BitcoinGraph()
                                                      : P2PGraph();
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunBasicSampling(graph, kWorlds, seed++).nodes_touched);
  }
  state.SetItemsProcessed(state.iterations() * kWorlds);
}
BENCHMARK(BM_ForwardSampleBlock)->Arg(0)->Arg(1)->Arg(2);

// One node's self-risk coin under 64 world seeds (coins/s = items/s).
// Arg: 0 = scalar tier, 1 = avx2 tier (skipped where AVX2 is unavailable).
void BM_CoinMask64(benchmark::State& state) {
  const simd::SimdTier tier = state.range(0) == 0 ? simd::SimdTier::kScalar
                                                  : simd::SimdTier::kAvx2;
  if (tier == simd::SimdTier::kAvx2 && !simd::Avx2Available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  Rng rng(17);
  uint64_t seeds[simd::kCoinMaskWorlds];
  for (uint64_t& seed : seeds) seed = rng.NextU64();
  const uint64_t threshold = simd::CoinThreshold(0.3);
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::CoinMask64(
        tier, seeds, simd::CoinInnerHash(id++), threshold));
  }
  state.SetItemsProcessed(state.iterations() * simd::kCoinMaskWorlds);
}
BENCHMARK(BM_CoinMask64)->Arg(0)->Arg(1);

void BM_ReverseSampleWorld(benchmark::State& state) {
  const UncertainGraph& graph =
      state.range(0) == 0 ? CitationGraph() : BitcoinGraph();
  // Candidates: the top 5% by upper bound, the realistic BSR workload.
  const auto upper = UpperBounds(graph, 2);
  const auto lower = LowerBounds(graph, 2);
  const auto reduced =
      ReduceCandidates(*lower, *upper, graph.num_nodes() / 20);
  ReverseSampler sampler(graph, reduced->candidates);
  std::vector<char> defaulted;
  uint64_t world = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleWorld(WorldSeed(7, world++), &defaulted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseSampleWorld)->Arg(0)->Arg(1);

void BM_LowerBounds(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LowerBounds(graph, order));
  }
}
BENCHMARK(BM_LowerBounds)->Arg(1)->Arg(2)->Arg(5);

void BM_UpperBounds(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpperBounds(graph, order));
  }
}
BENCHMARK(BM_UpperBounds)->Arg(1)->Arg(2)->Arg(5);

void BM_CandidateReduction(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const auto lower = LowerBounds(graph, 2);
  const auto upper = UpperBounds(graph, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReduceCandidates(*lower, *upper, graph.num_nodes() / 20));
  }
}
BENCHMARK(BM_CandidateReduction);

void BM_BottomKSketchAdd(benchmark::State& state) {
  const int bk = static_cast<int>(state.range(0));
  BottomKSketch sketch(bk, 99);
  uint64_t id = 0;
  for (auto _ : state) {
    sketch.Add(id++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKSketchAdd)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
