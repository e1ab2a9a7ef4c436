#include "vulnds/basic_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "exact/possible_world.h"
#include "simd/dispatch.h"
#include "testing/test_graphs.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {
namespace {

TEST(BasicSamplerTest, ZeroSamplesGiveZeroEstimates) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const BasicSampleStats stats = RunBasicSampling(g, 0, 1);
  EXPECT_EQ(stats.samples, 0u);
  for (const double e : stats.estimates) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(BasicSamplerTest, DeterministicNodesAreExact) {
  UncertainGraphBuilder b(3);
  ASSERT_TRUE(b.SetSelfRisk(0, 1.0).ok());
  ASSERT_TRUE(b.SetSelfRisk(1, 0.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 1.0).ok());
  UncertainGraph g = b.Build().MoveValue();
  const BasicSampleStats stats = RunBasicSampling(g, 200, 3);
  EXPECT_DOUBLE_EQ(stats.estimates[0], 1.0);  // always self-defaults
  EXPECT_DOUBLE_EQ(stats.estimates[1], 0.0);  // no risk, no in-edges
  EXPECT_DOUBLE_EQ(stats.estimates[2], 1.0);  // certain diffusion from 0
}

TEST(BasicSamplerTest, NoBackwardDiffusion) {
  // c's default must not infect b or a (edges point a -> b -> c).
  UncertainGraphBuilder b(3);
  ASSERT_TRUE(b.SetSelfRisk(2, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  UncertainGraph g = b.Build().MoveValue();
  const BasicSampleStats stats = RunBasicSampling(g, 500, 5);
  EXPECT_DOUBLE_EQ(stats.estimates[0], 0.0);
  EXPECT_DOUBLE_EQ(stats.estimates[1], 0.0);
  EXPECT_DOUBLE_EQ(stats.estimates[2], 1.0);
}

TEST(BasicSamplerTest, SameSeedSameEstimates) {
  UncertainGraph g = testing::RandomSmallGraph(10, 0.2, 7);
  const BasicSampleStats a = RunBasicSampling(g, 1000, 42);
  const BasicSampleStats b2 = RunBasicSampling(g, 1000, 42);
  EXPECT_EQ(a.estimates, b2.estimates);
}

TEST(BasicSamplerTest, DifferentSeedsDiffer) {
  UncertainGraph g = testing::RandomSmallGraph(10, 0.2, 7);
  const BasicSampleStats a = RunBasicSampling(g, 1000, 42);
  const BasicSampleStats b2 = RunBasicSampling(g, 1000, 43);
  EXPECT_NE(a.estimates, b2.estimates);
}

TEST(BasicSamplerTest, ParallelEqualsSerial) {
  UncertainGraph g = testing::RandomSmallGraph(12, 0.25, 9);
  ThreadPool pool(8);
  const BasicSampleStats serial = RunBasicSampling(g, 2000, 77, nullptr);
  const BasicSampleStats parallel = RunBasicSampling(g, 2000, 77, &pool);
  EXPECT_EQ(serial.estimates, parallel.estimates);
  EXPECT_EQ(serial.nodes_touched, parallel.nodes_touched);
}

TEST(BasicSamplerTest, ConvergesToExactOnPaperExample) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const std::size_t t = 40000;
  const BasicSampleStats stats = RunBasicSampling(g, t, 2024);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // 5 sigma of a binomial proportion.
    const double sigma = std::sqrt((*exact)[v] * (1 - (*exact)[v]) / t);
    EXPECT_NEAR(stats.estimates[v], (*exact)[v], 5 * sigma + 1e-9) << "node " << v;
  }
}

TEST(BasicSamplerTest, TouchedCountsAtLeastDefaults) {
  UncertainGraph g = testing::PaperExampleGraph(0.5);
  const BasicSampleStats stats = RunBasicSampling(g, 100, 5);
  EXPECT_GT(stats.nodes_touched, 0u);
}

// A random graph whose probabilities include the exact 0 and 1 endpoints,
// which the coin thresholds short-circuit: a share `endpoint_arcs` of the
// arcs has probability 0 or 1 (half each), and 15% of the nodes self-risk 1.
// Every in-arc of the last `dead_sinks` nodes has probability 0, so no other
// node can reach them.
UncertainGraph RandomGraphWithEndpoints(std::size_t n, double density,
                                        uint64_t seed,
                                        std::size_t dead_sinks = 0,
                                        double endpoint_arcs = 0.3) {
  Rng rng(seed);
  const auto prob = [&rng](double endpoints) {
    const double u = rng.NextDouble();
    if (u < endpoints / 2) return 0.0;
    if (u < endpoints) return 1.0;
    return rng.NextDouble();
  };
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    // Small self-risks bar the endpoints, so diffusion decides most defaults.
    const double p = prob(0.3);
    EXPECT_TRUE(b.SetSelfRisk(v, p == 1.0 ? p : 0.2 * p).ok());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.NextDouble() < density) {
        const double p = prob(endpoint_arcs);
        EXPECT_TRUE(b.AddEdge(u, v, v + dead_sinks >= n ? 0.0 : p).ok());
      }
    }
  }
  return b.Build().MoveValue();
}

// The per-world reference: ReverseSampler::SampleWorld's flags summed over
// worlds 0..t-1. Returns the estimates; `defaults` receives the number of
// defaulted (candidate, world) pairs.
std::vector<double> PerWorldEstimates(const UncertainGraph& g,
                                      const std::vector<NodeId>& candidates,
                                      std::size_t t, uint64_t seed,
                                      std::size_t* defaults) {
  ReverseSampler sampler;
  sampler.Bind(g, candidates);
  std::vector<uint32_t> counts(candidates.size(), 0);
  std::vector<char> flags;
  for (std::size_t i = 0; i < t; ++i) {
    sampler.SampleWorld(WorldSeed(seed, i), &flags);
    for (std::size_t c = 0; c < flags.size(); ++c) counts[c] += flags[c];
  }
  std::vector<double> estimates(candidates.size());
  *defaults = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    estimates[c] = static_cast<double>(counts[c]) / static_cast<double>(t);
    *defaults += counts[c];
  }
  return estimates;
}

// Every word and 256-world block boundary, spans whose last block holds
// one, two or three words at 1, 2, 3 and 7 workers (320, 447, 449, 577; see
// the file comment of basic_sampler.h), plus a long run.
const std::size_t kOracleSampleCounts[] = {1,   63,  64,  65,  127, 128,
                                           129, 191, 192, 193, 255, 256,
                                           257, 320, 447, 449, 577, 2000};

// The graphs of the oracle sweeps: RandomGraphWithEndpoints at `graph_seed`,
// where seed 5 makes 80% of the arcs certain or impossible, so that the
// kCoinAlways and 0 short-circuits meet the coarse pending masks at the
// same heads as kernel coins.
UncertainGraph OracleGraph(uint64_t graph_seed, std::size_t dead_sinks = 0) {
  return RandomGraphWithEndpoints(40, graph_seed == 5 ? 0.12 : 0.08,
                                  graph_seed, dead_sinks,
                                  graph_seed == 5 ? 0.8 : 0.3);
}

// N/SN and SR/BSR/BSRBK sample the same hashed worlds: the forward
// blocks of up to 256 worlds must reproduce the per-world reverse BFS over every node
// bit for bit, for every word and block boundary and every thread count
// (three workers split most word counts unevenly).
TEST(BasicSamplerTest, MatchesReverseSamplingBitForBit) {
  ThreadPool pool2(2), pool3(3), pool7(7);
  ThreadPool pool_hw(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool* const pools[] = {nullptr, &pool2, &pool3, &pool7, &pool_hw};
  for (const uint64_t graph_seed : {1, 2, 3, 4, 5}) {
    UncertainGraph g = OracleGraph(graph_seed);
    std::vector<NodeId> all(g.num_nodes());
    std::iota(all.begin(), all.end(), 0);
    for (const std::size_t t : kOracleSampleCounts) {
      const uint64_t seed = graph_seed * 1000 + t;
      std::size_t defaults = 0;
      const std::vector<double> reference =
          PerWorldEstimates(g, all, t, seed, &defaults);
      for (ThreadPool* pool : pools) {
        const std::size_t threads = pool == nullptr ? 0 : pool->num_threads();
        const BasicSampleStats forward = RunBasicSampling(g, t, seed, pool);
        EXPECT_EQ(forward.estimates, reference)
            << "graph " << graph_seed << " t " << t << " threads " << threads;
        EXPECT_EQ(forward.nodes_touched, defaults)
            << "graph " << graph_seed << " t " << t << " threads " << threads;
        EXPECT_EQ(forward.samples, t);
      }
    }
  }
}

// SR/BSR run the same block kernel over the candidates' reverse closure:
// their estimates must equal the per-world reverse BFS bit for bit for any
// candidate set, including one whose in-arcs all have probability 0 (the
// closure is then the candidates alone).
TEST(BasicSamplerTest, ReverseSamplingMatchesPerWorldReference) {
  ThreadPool pool2(2), pool3(3), pool7(7);
  ThreadPool pool_hw(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool* const pools[] = {nullptr, &pool2, &pool3, &pool7, &pool_hw};
  constexpr std::size_t kNodes = 40;
  constexpr std::size_t kDeadSinks = 4;
  for (const uint64_t graph_seed : {1, 2, 3, 4, 5}) {
    UncertainGraph g = OracleGraph(graph_seed, kDeadSinks);
    std::vector<NodeId> all(kNodes);
    std::iota(all.begin(), all.end(), 0);
    std::vector<NodeId> fifth;
    Rng rng(graph_seed + 77);
    for (const NodeId v : all) {
      if (rng.NextDouble() < 0.2) fifth.push_back(v);
    }
    std::vector<NodeId> dead(all.end() - kDeadSinks, all.end());
    const std::vector<std::pair<const char*, std::vector<NodeId>>> sets = {
        {"single", {static_cast<NodeId>(graph_seed * 7)}},
        {"all", all},
        {"fifth", fifth},
        {"dead", dead}};
    for (const auto& [name, candidates] : sets) {
      for (const std::size_t t : kOracleSampleCounts) {
        const uint64_t seed = graph_seed * 1000 + t;
        std::size_t defaults = 0;
        const std::vector<double> reference =
            PerWorldEstimates(g, candidates, t, seed, &defaults);
        for (ThreadPool* pool : pools) {
          const std::string what =
              std::string(name) + " graph " + std::to_string(graph_seed) +
              " t " + std::to_string(t) + " threads " +
              std::to_string(pool == nullptr ? 0 : pool->num_threads());
          const BasicSampleStats reverse =
              RunReverseSampling(g, candidates, t, seed, pool);
          EXPECT_EQ(reverse.estimates, reference) << what;
          EXPECT_EQ(reverse.samples, t) << what;
          EXPECT_EQ(reverse.nodes_touched, defaults) << what;
        }
      }
    }
  }
}

// The coin kernels' tier changes cost, never a bit: scalar, AVX2 and
// AVX-512 give identical estimates and nodes_touched for every word and
// block boundary (a partial word reads stale seed slots past `t`) and every
// thread count. The worklist does not depend on the tier either, so node
// visits and open coins are identical. Scalar and AVX2 flip the same number
// of coins at the same pool (the edge-coin count follows how the pool
// groups words into blocks), one edge lane per open coin; AVX-512 counts
// whole eight-lane edge blocks, so at least as many.
TEST(BasicSamplerTest, BlockKernelIsIdenticalAcrossTiers) {
  const simd::SimdTier avx2 = simd::ResolveTier(simd::SimdMode::kAvx2);
  const simd::SimdTier avx512 = simd::ResolveTier(simd::SimdMode::kAvx512);
  ThreadPool pool2(2), pool3(3);
  ThreadPool pool_hw(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool* const pools[] = {nullptr, &pool2, &pool3, &pool_hw};
  for (const uint64_t graph_seed : {1, 2, 3, 5}) {
    UncertainGraph g = OracleGraph(graph_seed);
    Rng rng(graph_seed + 91);
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.NextDouble() < 0.2) candidates.push_back(v);
    }
    for (const std::size_t t : kOracleSampleCounts) {
      const uint64_t seed = graph_seed * 1000 + t;
      for (ThreadPool* pool : pools) {
        const std::string what =
            "graph " + std::to_string(graph_seed) + " t " + std::to_string(t) +
            " threads " +
            std::to_string(pool == nullptr ? 0 : pool->num_threads());
        const auto expect_same = [&](const BasicSampleStats& scalar,
                                     const BasicSampleStats& vector,
                                     simd::SimdTier tier,
                                     const std::string& run) {
          EXPECT_EQ(scalar.estimates, vector.estimates) << run << what;
          EXPECT_EQ(scalar.nodes_touched, vector.nodes_touched) << run << what;
          EXPECT_EQ(scalar.node_visits, vector.node_visits) << run << what;
          EXPECT_EQ(scalar.open_coins, vector.open_coins) << run << what;
          EXPECT_EQ(scalar.edge_lanes, scalar.open_coins) << run << what;
          if (tier == simd::SimdTier::kAvx512) {
            EXPECT_GE(vector.edge_lanes, vector.open_coins) << run << what;
          } else {
            EXPECT_EQ(vector.edge_lanes, vector.open_coins) << run << what;
          }
          EXPECT_EQ(scalar.coin_stats.batched_coins, 0u) << run << what;
          if (tier != simd::SimdTier::kScalar) {
            EXPECT_GT(vector.coin_stats.batched_coins, 0u) << run << what;
          }
          const uint64_t vector_coins = vector.coin_stats.batched_coins +
                                        vector.coin_stats.tail_coins;
          if (tier == simd::SimdTier::kAvx512) {
            EXPECT_EQ(vector.coin_stats.tail_coins, 0u) << run << what;
            EXPECT_GE(vector_coins, scalar.coin_stats.tail_coins)
                << run << what;
          } else {
            EXPECT_EQ(vector_coins, scalar.coin_stats.tail_coins)
                << run << what;
          }
        };
        for (const simd::SimdTier tier : {avx2, avx512}) {
          const std::string run = simd::SimdTierName(tier);
          expect_same(
              RunBasicSampling(g, t, seed, pool, simd::SimdTier::kScalar),
              RunBasicSampling(g, t, seed, pool, tier), tier,
              run + " forward ");
          expect_same(RunReverseSampling(g, candidates, t, seed, pool,
                                         simd::SimdTier::kScalar),
                      RunReverseSampling(g, candidates, t, seed, pool, tier),
                      tier, run + " reverse ");
        }
      }
    }
  }
}

// The block kernel's fixpoint does not depend on the order its scope is
// seeded in, so SR/BSR may hand over their reverse closure in node-id order:
// the closure in BFS order, in id order and shuffled gives identical
// estimates and nodes_touched.
TEST(BasicSamplerTest, ScopeOrderDoesNotChangeEstimates) {
  ThreadPool pool3(3);
  ThreadPool* const pools[] = {nullptr, &pool3};
  for (const uint64_t graph_seed : {1, 2, 3}) {
    UncertainGraph g = RandomGraphWithEndpoints(40, 0.08, graph_seed);
    Rng rng(graph_seed + 53);
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.NextDouble() < 0.2) candidates.push_back(v);
    }
    // The closure as RunReverseSampling's reverse BFS discovers it.
    std::vector<char> seen(g.num_nodes(), 0);
    std::vector<NodeId> bfs;
    for (const NodeId c : candidates) {
      if (seen[c] == 0) {
        seen[c] = 1;
        bfs.push_back(c);
      }
    }
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      for (const Arc& arc : g.InArcs(bfs[head])) {
        if (arc.prob > 0.0 && seen[arc.neighbor] == 0) {
          seen[arc.neighbor] = 1;
          bfs.push_back(arc.neighbor);
        }
      }
    }
    std::vector<NodeId> by_id = bfs;
    std::sort(by_id.begin(), by_id.end());
    ASSERT_NE(bfs, by_id) << "graph " << graph_seed;
    std::vector<NodeId> shuffled = bfs;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    for (const std::size_t t : {65, 193, 2000}) {
      const uint64_t seed = graph_seed * 1000 + t;
      for (ThreadPool* pool : pools) {
        const std::string what =
            "graph " + std::to_string(graph_seed) + " t " + std::to_string(t) +
            " threads " +
            std::to_string(pool == nullptr ? 0 : pool->num_threads());
        const BasicSampleStats reference =
            RunBlockSampling(g, bfs, candidates, t, seed, pool);
        for (const auto* scope : {&by_id, &shuffled}) {
          const BasicSampleStats run =
              RunBlockSampling(g, *scope, candidates, t, seed, pool);
          EXPECT_EQ(run.estimates, reference.estimates) << what;
          EXPECT_EQ(run.nodes_touched, reference.nodes_touched) << what;
        }
      }
    }
  }
}

// Property sweep: unbiasedness against the exact oracle across random
// graphs and seeds.
class SamplerOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerOracleSweep, EstimatesWithinFiveSigmaOfExact) {
  const uint64_t seed = GetParam();
  UncertainGraph g = testing::RandomSmallGraph(5, 0.35, seed);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const std::size_t t = 20000;
  const BasicSampleStats stats = RunBasicSampling(g, t, seed ^ 0xABCDEF);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double p = (*exact)[v];
    const double sigma = std::sqrt(p * (1 - p) / t);
    EXPECT_NEAR(stats.estimates[v], p, 5 * sigma + 1e-9)
        << "node " << v << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerOracleSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vulnds
