// Micro-benchmarks (google-benchmark) for the core sampling machinery:
// per-world cost of forward (128-world blocks) vs reverse sampling, the
// block kernel's 64-world seeding coin per tier, the bound iterations and
// candidate reduction — plus the serve hit path around a cached answer:
// request parse, response render and the %.17g double format.

#include <benchmark/benchmark.h>

#include <charconv>
#include <memory>
#include <numeric>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "simd/coin_kernels.h"
#include "simd/dispatch.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/bounds.h"
#include "vulnds/candidate_reduction.h"
#include "vulnds/coin_columns.h"
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

// The densest graph the serve workloads sample: 21 in-arcs per node on
// average, hubs near 300.
const UncertainGraph& FacebookGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kFacebook, 1.0, 42).MoveValue();
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
// Arg: the SimdTier value, 0 = scalar, 1 = avx2, 2 = avx512 (a vector tier
// is skipped where the host lacks it).
void BM_CoinMask64(benchmark::State& state) {
  const auto tier = static_cast<simd::SimdTier>(state.range(0));
  if ((tier == simd::SimdTier::kAvx2 && !simd::Avx2Available()) ||
      (tier == simd::SimdTier::kAvx512 && !simd::Avx512Available())) {
    state.SkipWithError("tier unavailable on this host");
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
BENCHMARK(BM_CoinMask64)->Arg(0)->Arg(1)->Arg(2);

// One world of BSRBK's per-world sampler. Arg: 0 = Citation, 1 = Bitcoin,
// 2 = Facebook.
void BM_ReverseSampleWorld(benchmark::State& state) {
  const UncertainGraph& graph = state.range(0) == 0   ? CitationGraph()
                                : state.range(0) == 1 ? BitcoinGraph()
                                                      : FacebookGraph();
  // Candidates: the top 5% by upper bound, the realistic BSR workload.
  const auto upper = UpperBounds(graph, 2);
  const auto lower = LowerBounds(graph, 2);
  const auto reduced =
      ReduceCandidates(*lower, *upper, graph.num_nodes() / 20);
  // The columns BSRBK's samplers use on this graph (null below the density
  // gate).
  const std::shared_ptr<const CoinColumns> columns =
      CoinColumns::Worthwhile(graph) ? CoinColumns::Shared(graph) : nullptr;
  ReverseSampler sampler;
  sampler.Bind(graph, reduced->candidates, columns.get());
  std::vector<char> defaulted;
  uint64_t world = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleWorld(WorldSeed(7, world++), &defaulted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseSampleWorld)->Arg(0)->Arg(1)->Arg(2);

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

// A sink that discards what it is given, so only the render is timed.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// A cached detect answered through ServeSession::HandleLine: parse, catalog
// lookup, result-cache hit and the k-row render, the path most serve
// traffic takes.
void BM_RenderDetectResponse(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  serve::GraphCatalog catalog;
  if (!catalog.Put("g", CitationGraph()).ok()) {
    state.SkipWithError("catalog put failed");
    return;
  }
  serve::QueryEngine engine(&catalog);
  serve::ServeSession session(&engine);
  NullBuf buf;
  std::ostream sink(&buf);
  const std::string line = "detect g " + std::to_string(k) + " SN seed=7";
  session.HandleLine(line, sink);  // cold: fills the result cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.HandleLine(line, sink));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
}
BENCHMARK(BM_RenderDetectResponse)->Arg(64)->Arg(256)->Arg(1024);

// Score-shaped doubles: hit counts over world counts, as detect and truth
// report them.
std::vector<double> ScoreShapedDoubles() {
  Rng rng(36);
  std::vector<double> scores(4096);
  for (double& s : scores) {
    const uint64_t worlds = 1000 + rng.NextBounded(9000);
    s = static_cast<double>(rng.NextBounded(worlds + 1)) /
        static_cast<double>(worlds);
  }
  return scores;
}

// One double in the wire's %.17g form. Arg 0: AppendRoundTrip (the integer
// kernel); arg 1: std::to_chars at precision 17, the formatter it replaced,
// as the reference. Report-only.
void BM_AppendRoundTrip(benchmark::State& state) {
  const std::vector<double> scores = ScoreShapedDoubles();
  const bool reference = state.range(0) == 1;
  std::string text;
  std::size_t i = 0;
  for (auto _ : state) {
    text.clear();
    const double v = scores[i++ % scores.size()];
    if (reference) {
      char buf[kMaxRoundTripChars];
      const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                        std::chars_format::general, 17);
      text.append(buf, result.ptr);
    } else {
      AppendRoundTrip(&text, v);
    }
    benchmark::DoNotOptimize(text.data());
  }
  state.SetLabel(reference ? "to_chars" : "kernel");
}
BENCHMARK(BM_AppendRoundTrip)->Arg(0)->Arg(1);

void BM_ParseServeRequest(benchmark::State& state) {
  const std::string lines[] = {
      "detect g7 25 BSRBK seed=123",
      "detect citation 50 SR eps=0.2 delta=0.05 seed=9",
      "truth g 10 5000 123",
      "setprob g 3 7 0.10000000000000001",
  };
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::ParseServeRequest(lines[i++ % 4]));
  }
}
BENCHMARK(BM_ParseServeRequest);

}  // namespace

BENCHMARK_MAIN();
