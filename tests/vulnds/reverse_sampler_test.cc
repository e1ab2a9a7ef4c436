#include "vulnds/reverse_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "exact/possible_world.h"
#include "simd/dispatch.h"
#include "testing/test_graphs.h"
#include "vulnds/coin_columns.h"

namespace vulnds {
namespace {

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(WorldPurityTest, CoinsAreDeterministic) {
  const uint64_t w = WorldSeed(42, 7);
  EXPECT_EQ(WorldSeed(42, 7), w);
  EXPECT_NE(WorldSeed(42, 8), w);
  EXPECT_NE(WorldSeed(43, 7), w);
  EXPECT_EQ(WorldNodeSelfDefaults(w, 3, 0.5), WorldNodeSelfDefaults(w, 3, 0.5));
  EXPECT_EQ(WorldEdgeSurvives(w, 9, 0.5), WorldEdgeSurvives(w, 9, 0.5));
}

TEST(WorldPurityTest, DeterministicProbabilities) {
  const uint64_t w = WorldSeed(1, 1);
  EXPECT_FALSE(WorldNodeSelfDefaults(w, 0, 0.0));
  EXPECT_TRUE(WorldNodeSelfDefaults(w, 0, 1.0));
  EXPECT_FALSE(WorldEdgeSurvives(w, 0, 0.0));
  EXPECT_TRUE(WorldEdgeSurvives(w, 0, 1.0));
}

TEST(WorldPurityTest, CoinFrequenciesMatchProbability) {
  int node_hits = 0;
  int edge_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t w = WorldSeed(5, static_cast<uint64_t>(i));
    node_hits += WorldNodeSelfDefaults(w, 11, 0.3) ? 1 : 0;
    edge_hits += WorldEdgeSurvives(w, 11, 0.7) ? 1 : 0;
  }
  EXPECT_NEAR(node_hits / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(edge_hits / static_cast<double>(n), 0.7, 0.01);
}

// The core equivalence property: reverse evaluation of world w equals
// forward evaluation (exact::EvaluateWorld) of the identical world.
class ReverseForwardEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReverseForwardEquivalence, MatchesForwardEvaluationWorldByWorld) {
  const uint64_t seed = GetParam();
  UncertainGraph g = testing::RandomSmallGraph(9, 0.3, seed);
  const std::vector<NodeId> candidates = AllNodes(g);
  ReverseSampler sampler;
  sampler.Bind(g, candidates);
  std::vector<char> reverse_flags;
  for (uint64_t sample = 0; sample < 200; ++sample) {
    const uint64_t w = WorldSeed(seed ^ 0x5555, sample);
    // Materialize the same world forward.
    std::vector<char> self(g.num_nodes());
    std::vector<char> edges(g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      self[v] = WorldNodeSelfDefaults(w, v, g.self_risk(v)) ? 1 : 0;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edges[e] = WorldEdgeSurvives(w, e, g.edges()[e].prob) ? 1 : 0;
    }
    const std::vector<char> forward = EvaluateWorld(g, self, edges);
    sampler.SampleWorld(w, &reverse_flags);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(reverse_flags[v], forward[v])
          << "world " << sample << " node " << v << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseForwardEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ReverseSamplerTest, CandidateSubsetOnly) {
  UncertainGraph g = testing::PaperExampleGraph(0.3);
  const std::vector<NodeId> candidates = {3, 4};
  ReverseSampler sampler;
  sampler.Bind(g, candidates);
  std::vector<char> flags;
  sampler.SampleWorld(WorldSeed(1, 0), &flags);
  EXPECT_EQ(flags.size(), 2u);
}

TEST(ReverseSamplerTest, EstimatesConvergeToExact) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const std::size_t t = 40000;
  const BasicSampleStats stats = RunReverseSampling(g, AllNodes(g), t, 99);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double p = (*exact)[v];
    const double sigma = std::sqrt(p * (1 - p) / t);
    EXPECT_NEAR(stats.estimates[v], p, 5 * sigma + 1e-9) << "node " << v;
  }
}

TEST(ReverseSamplerTest, ParallelEqualsSerial) {
  UncertainGraph g = testing::RandomSmallGraph(12, 0.25, 21);
  ThreadPool pool(8);
  const std::vector<NodeId> candidates = {0, 3, 5, 7, 11};
  const BasicSampleStats serial =
      RunReverseSampling(g, candidates, 3000, 7, nullptr);
  const BasicSampleStats parallel =
      RunReverseSampling(g, candidates, 3000, 7, &pool);
  EXPECT_EQ(serial.estimates, parallel.estimates);
}

TEST(ReverseSamplerTest, ZeroSamples) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const BasicSampleStats stats = RunReverseSampling(g, {0, 1}, 0, 1);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.estimates, (std::vector<double>{0.0, 0.0}));
}

TEST(ReverseSamplerTest, EmptyCandidates) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const BasicSampleStats stats = RunReverseSampling(g, {}, 100, 1);
  EXPECT_TRUE(stats.estimates.empty());
}

TEST(ReverseSamplerTest, SharedWorldAcrossCandidates) {
  // With ps(a)=1 and certain edges a->b->c, every candidate must default in
  // every world, and conclusions must be shared consistently.
  UncertainGraphBuilder b(3);
  ASSERT_TRUE(b.SetSelfRisk(0, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  UncertainGraph g = b.Build().MoveValue();
  const std::vector<NodeId> candidates = {2, 1, 0};
  ReverseSampler sampler;
  sampler.Bind(g, candidates);
  std::vector<char> flags;
  for (uint64_t s = 0; s < 50; ++s) {
    sampler.SampleWorld(WorldSeed(3, s), &flags);
    EXPECT_EQ(flags, (std::vector<char>{1, 1, 1}));
  }
}

TEST(ReverseSamplerTest, TouchedIsBoundedByCandidateWork) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const std::vector<NodeId> candidates = {4};
  ReverseSampler sampler;
  sampler.Bind(g, candidates);
  std::vector<char> flags;
  const std::size_t touched = sampler.SampleWorld(WorldSeed(9, 0), &flags);
  // One candidate can touch at most every node once.
  EXPECT_LE(touched, g.num_nodes());
}

TEST(ReverseSamplerTest, StampWrapMatchesFreshSampler) {
  // Stamps keep counting across worlds, queries and graphs, and each array
  // is re-zeroed only when its stamp wraps. Leave stamp 1 in every entry of
  // both arrays, then sample 8 worlds across the wrap, where stamp 1 comes
  // round again: a stale entry would read as visited or as concluded safe.
  constexpr std::size_t kNodes = 60;
  UncertainGraphBuilder ring(kNodes);  // certain ring, no self-risk
  for (NodeId v = 0; v < kNodes; ++v) {
    testing::CheckOk(ring.AddEdge(v, (v + 1) % kNodes, 1.0));
  }
  const UncertainGraph dirty = ring.Build().MoveValue();
  const std::vector<NodeId> root = {0};
  ReverseSampler wrapped;
  wrapped.Bind(dirty, root);
  std::vector<char> flags;
  // One BFS over the whole ring finds no default: every node is visited and
  // concluded safe under stamp 1.
  wrapped.SampleWorld(WorldSeed(77, 0), &flags);
  ASSERT_EQ(flags, std::vector<char>{0});

  Rng rng(404);
  UncertainGraphBuilder b(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    testing::CheckOk(b.SetSelfRisk(v, 0.1 * rng.NextDouble()));
    for (int e = 0; e < 3; ++e) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
      if (u != v) testing::CheckOk(b.AddEdge(u, v, 0.3 + 0.6 * rng.NextDouble()));
    }
  }
  const UncertainGraph g = b.Build().MoveValue();
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < kNodes; v += 3) candidates.push_back(v);
  wrapped.Bind(g, candidates);
  wrapped.SetStampsForTesting(ReverseSampler::kSampleStampLimit - 2,
                              ReverseSampler::Stamp(-2));
  ReverseSampler fresh;
  fresh.Bind(g, candidates);
  std::vector<char> want;
  std::size_t defaults = 0;
  for (uint64_t s = 0; s < 8; ++s) {
    const std::size_t want_touched = fresh.SampleWorld(WorldSeed(5, s), &want);
    EXPECT_EQ(wrapped.SampleWorld(WorldSeed(5, s), &flags), want_touched)
        << "world " << s;
    EXPECT_EQ(flags, want) << "world " << s;
    for (const char f : want) defaults += f;
  }
  EXPECT_GT(defaults, 0u);  // a stale "safe" would have been visible
}

TEST(ReverseSamplerTest, RebindAcrossGraphsMatchesFreshSampler) {
  // One sampler moves between graphs of different sizes, as a pool
  // thread's does between queries; every world matches a fresh sampler.
  const UncertainGraph graphs[3] = {testing::RandomSmallGraph(80, 0.06, 1),
                                    testing::RandomSmallGraph(20, 0.2, 2),
                                    testing::RandomSmallGraph(80, 0.06, 3)};
  ReverseSampler reused;
  for (const UncertainGraph& g : graphs) {
    const std::vector<NodeId> candidates = AllNodes(g);
    EXPECT_EQ(reused.Bind(g, candidates), &g == &graphs[0]);
    ReverseSampler fresh;
    fresh.Bind(g, candidates);
    std::vector<char> want;
    std::vector<char> got;
    for (uint64_t s = 0; s < 20; ++s) {
      EXPECT_EQ(reused.SampleWorld(WorldSeed(9, s), &got),
                fresh.SampleWorld(WorldSeed(9, s), &want));
      EXPECT_EQ(got, want);
    }
  }
}

// The dequeue-time search: the reverse BFS as the paper's Algorithm 5 reads,
// testing a node (memo, then self coin) only when it leaves the queue, with
// the double-valued WorldNodeSelfDefaults / WorldEdgeSurvives coins. The
// sampler tests each node when it is first queued and must report the same
// flag and the same touch count for every candidate of every world.
class DequeueTimeSearch {
 public:
  explicit DequeueTimeSearch(const UncertainGraph& g) : g_(g) {}

  // Flags and per-candidate touch counts of `candidates` in one world.
  void SampleWorld(uint64_t world, const std::vector<NodeId>& candidates,
                   std::vector<char>* flags,
                   std::vector<std::size_t>* touched) {
    world_ = world;
    conclusion_.assign(g_.num_nodes(), kUnknown);
    flags->assign(candidates.size(), 0);
    touched->assign(candidates.size(), 0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      (*flags)[i] = Evaluate(candidates[i], &(*touched)[i]) ? 1 : 0;
    }
  }

 private:
  enum Conclusion : char { kUnknown, kDefaulted, kSafe };

  bool Evaluate(NodeId v, std::size_t* touched) {
    if (conclusion_[v] != kUnknown) return conclusion_[v] == kDefaulted;
    std::vector<char> visited(g_.num_nodes(), 0);
    std::vector<NodeId> queue = {v};
    std::vector<NodeId> explored;
    visited[v] = 1;
    bool found = false;
    for (std::size_t head = 0; head < queue.size() && !found; ++head) {
      const NodeId u = queue[head];
      ++*touched;
      if (conclusion_[u] == kDefaulted) {
        found = true;
        break;
      }
      if (conclusion_[u] == kSafe) continue;
      explored.push_back(u);
      if (WorldNodeSelfDefaults(world_, u, g_.self_risk(u))) {
        conclusion_[u] = kDefaulted;
        found = true;
        break;
      }
      for (const Arc& arc : g_.InArcs(u)) {
        if (!WorldEdgeSurvives(world_, arc.edge, arc.prob)) continue;
        if (visited[arc.neighbor]) continue;
        visited[arc.neighbor] = 1;
        queue.push_back(arc.neighbor);
      }
    }
    if (found) {
      conclusion_[v] = kDefaulted;
      return true;
    }
    for (const NodeId u : explored) conclusion_[u] = kSafe;
    conclusion_[v] = kSafe;
    return false;
  }

  const UncertainGraph& g_;
  uint64_t world_ = 0;
  std::vector<Conclusion> conclusion_;
};

// Random graphs whose probabilities include the exact 0 and 1 the coin
// thresholds special-case, with parallel arcs and a hub above one arc chunk.
UncertainGraph OracleGraph(std::size_t n, std::size_t in_arcs, uint64_t seed) {
  Rng rng(seed);
  const auto prob = [&](double scale) {
    const double r = rng.NextDouble();
    return r < 0.15 ? 0.0 : r < 0.3 ? 1.0 : scale * rng.NextDouble();
  };
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) testing::CheckOk(b.SetSelfRisk(v, prob(0.2)));
  for (NodeId v = 0; v < n; ++v) {
    // Node 0 is the hub: every other node points at it.
    const std::size_t arcs = v == 0 ? n - 1 : rng.NextBounded(2 * in_arcs + 1);
    for (std::size_t a = 0; a < arcs; ++a) {
      const NodeId u = v == 0 ? static_cast<NodeId>(a + 1)
                              : static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) continue;
      const double p = prob(1.0);
      testing::CheckOk(b.AddEdge(u, v, p));
      if (rng.NextDouble() < 0.1) testing::CheckOk(b.AddEdge(u, v, prob(1.0)));
    }
  }
  return b.Build().MoveValue();
}

// The columns argument that makes a sampler flip coins off the arcs.
constexpr const CoinColumns* kDirectCoins = nullptr;

std::vector<simd::SimdTier> AvailableTiers() {
  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::SimdTier::kAvx2);
  if (simd::Avx512Available()) tiers.push_back(simd::SimdTier::kAvx512);
  return tiers;
}

// Samples `worlds` worlds with `sampler` and with the dequeue-time search.
// The sampler reports one touch total per world, so candidate i's count is
// read as the difference of the totals over the first i + 1 and the first i
// candidates: each prefix is rebound and sampled as its own world (worlds
// are pure, so every prefix sees the same coins).
void ExpectMatchesDequeueTimeSearch(ReverseSampler* sampler,
                                    const UncertainGraph& g,
                                    const std::vector<NodeId>& candidates,
                                    const CoinColumns* columns,
                                    simd::SimdTier tier, std::size_t worlds,
                                    const std::string& what) {
  DequeueTimeSearch reference(g);
  std::vector<char> want_flags;
  std::vector<std::size_t> want_touched;
  std::vector<char> flags;
  for (uint64_t s = 0; s < worlds; ++s) {
    const uint64_t world = WorldSeed(71, s);
    reference.SampleWorld(world, candidates, &want_flags, &want_touched);
    std::size_t previous = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      sampler->Bind(g, std::span<const NodeId>(candidates.data(), i + 1),
                    columns, tier);
      const std::size_t total = sampler->SampleWorld(world, &flags);
      ASSERT_EQ(flags[i], want_flags[i])
          << what << " world " << s << " candidate " << candidates[i];
      ASSERT_EQ(total - previous, want_touched[i])
          << what << " world " << s << " candidate " << candidates[i];
      previous = total;
    }
    ASSERT_EQ(flags, want_flags) << what << " world " << s;
  }
}

TEST(ReverseSamplerOracleTest, DiscoveryTestMatchesDequeueTimeSearch) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    // Sparse and dense shapes; the hub's run spans several arc chunks.
    const UncertainGraph g = OracleGraph(seed % 2 == 0 ? 40 : 70,
                                         seed % 2 == 0 ? 2 : 9, seed);
    const CoinColumns columns = CoinColumns::Build(g);
    // Every node, in a shuffled order, so later candidates meet conclusions
    // that earlier searches left.
    std::vector<NodeId> candidates = AllNodes(g);
    Rng shuffle(seed);
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[shuffle.NextBounded(i)]);
    }
    for (const simd::SimdTier tier : AvailableTiers()) {
      for (const CoinColumns* cols : {&columns, kDirectCoins}) {
        const std::string what = "seed " + std::to_string(seed) + " tier " +
                                 simd::SimdTierName(tier) +
                                 (cols == nullptr ? " direct" : " columns");
        ReverseSampler sampler;
        ExpectMatchesDequeueTimeSearch(&sampler, g, candidates, cols, tier, 12,
                                       what);
      }
    }
  }
}

TEST(ReverseSamplerOracleTest, MatchesDequeueTimeSearchAcrossStampWrap) {
  // Both stamps wrap within the first worlds: the sample stamp after 3
  // SampleWorld calls, the visit stamp after 40 candidate searches.
  const UncertainGraph g = OracleGraph(50, 6, 77);
  const CoinColumns columns = CoinColumns::Build(g);
  const std::vector<NodeId> candidates = AllNodes(g);
  for (const CoinColumns* cols : {&columns, kDirectCoins}) {
    ReverseSampler sampler;
    sampler.Bind(g, candidates, cols);
    sampler.SetStampsForTesting(ReverseSampler::kSampleStampLimit - 3,
                                ReverseSampler::Stamp(-40));
    ExpectMatchesDequeueTimeSearch(&sampler, g, candidates, cols,
                                   simd::DefaultTier(), 4,
                                   cols == nullptr ? "direct" : "columns");
  }
}

TEST(ReverseSamplerOracleTest, SearchStopsInsideTheFirstArcChunkOfAHub) {
  // The hub's 200 parents all default and all its arcs survive, so the
  // hub's first surviving parent ends every search: each world flips the
  // hub's self coin, one chunk of its in-arc coins and that parent's self
  // coin, never the rest of the run.
  constexpr std::size_t kParents = 200;
  UncertainGraphBuilder b(kParents + 1);
  for (NodeId u = 1; u <= kParents; ++u) {
    testing::CheckOk(b.SetSelfRisk(u, 1.0));
    testing::CheckOk(b.AddEdge(u, 0, 1.0));
  }
  const UncertainGraph g = b.Build().MoveValue();
  const CoinColumns columns = CoinColumns::Build(g);
  const std::vector<NodeId> hub = {0};
  constexpr std::size_t kWorlds = 32;
  for (const simd::SimdTier tier : AvailableTiers()) {
    for (const CoinColumns* cols : {&columns, kDirectCoins}) {
      const std::string what = std::string(simd::SimdTierName(tier)) +
                               (cols == nullptr ? " direct" : " columns");
      ReverseSampler sampler;
      sampler.Bind(g, hub, cols, tier);
      std::vector<char> flags;
      for (uint64_t s = 0; s < kWorlds; ++s) {
        ASSERT_EQ(sampler.SampleWorld(WorldSeed(3, s), &flags), 2u) << what;
        ASSERT_EQ(flags, std::vector<char>{1}) << what;
      }
      const simd::CoinKernelStats& coins = sampler.coin_stats();
      // Per world: 2 self coins plus at most one chunk of edge coins (one
      // edge coin on the direct path, which flips arc by arc).
      const std::size_t edge_coins =
          cols == nullptr ? 1 : ReverseSampler::kArcChunk;
      EXPECT_LE(coins.batched_coins + coins.tail_coins,
                kWorlds * (2 + edge_coins))
          << what;
    }
  }
}

}  // namespace
}  // namespace vulnds
