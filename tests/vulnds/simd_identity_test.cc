// End-to-end tier bit-identity: the simd= knob must never change a single
// bit of any result — rankings, scores, the early-stop position, kth hash
// order, samples_processed — for any (tier, thread count) combination,
// and so for every wave schedule the thread counts produce. On hosts
// without AVX-512 the forced-avx512 mode legally degrades to avx2, and
// without AVX2 the forced modes degrade to scalar, so every assertion still
// holds (identity becomes trivial); tests/simd/ covers the kernels
// lane-by-lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "simd/dispatch.h"
#include "testing/test_graphs.h"
#include "vulnds/bsrbk.h"
#include "vulnds/coin_columns.h"
#include "vulnds/detector.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {
namespace {

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.topk, b.topk) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    // Bitwise, not approximate: the contract is identity.
    EXPECT_EQ(a.scores[i], b.scores[i]) << what << " score " << i;
  }
  EXPECT_EQ(a.samples_budget, b.samples_budget) << what;
  EXPECT_EQ(a.samples_processed, b.samples_processed) << what;
  EXPECT_EQ(a.verified_count, b.verified_count) << what;
  EXPECT_EQ(a.candidate_count, b.candidate_count) << what;
  EXPECT_EQ(a.nodes_touched, b.nodes_touched) << what;
  EXPECT_EQ(a.early_stopped, b.early_stopped) << what;
}

TEST(SimdIdentityTest, SampleOrderIsIdenticalAcrossTiers) {
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    const BottomKSampleOrder scalar =
        MakeBottomKSampleOrder(42, t, simd::SimdTier::kScalar);
    const BottomKSampleOrder best =
        MakeBottomKSampleOrder(42, t, simd::BestSupportedTier());
    EXPECT_EQ(scalar.order, best.order) << "t=" << t;
    ASSERT_EQ(scalar.hash_of.size(), best.hash_of.size());
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(scalar.hash_of[i], best.hash_of[i]) << "t=" << t << " i=" << i;
    }
  }
}

// The per-world reverse BFS BSRBK runs: each world's defaulted flags and
// expansion count for worlds 0..t-1, split into contiguous slices with one
// ReverseSampler per pool worker (the bottom-k waves let workers claim
// worlds one at a time; a world's flags do not depend on who samples it).
struct WorldFlags {
  std::vector<std::vector<char>> flags;
  std::vector<std::size_t> touched;
  bool operator==(const WorldFlags&) const = default;
};

WorldFlags SampleWorlds(const UncertainGraph& g,
                        const std::vector<NodeId>& candidates, std::size_t t,
                        uint64_t seed, const CoinColumns* columns,
                        simd::SimdTier tier, ThreadPool* pool) {
  WorldFlags out;
  out.flags.resize(t);
  out.touched.resize(t);
  const std::size_t workers = pool == nullptr ? 1 : pool->num_threads();
  const std::size_t chunk = (t + workers - 1) / workers;
  const auto run = [&](std::size_t w) {
    ReverseSampler sampler;
    sampler.Bind(g, candidates, columns, tier);
    for (std::size_t i = w * chunk; i < std::min(t, (w + 1) * chunk); ++i) {
      out.touched[i] = sampler.SampleWorld(WorldSeed(seed, i), &out.flags[i]);
    }
  };
  if (pool == nullptr) {
    run(0);
  } else {
    pool->ParallelFor(workers, run);
  }
  return out;
}

TEST(SimdIdentityTest, DirectPathMatchesColumnKernelsOnSparseGraphs) {
  // Below the density gate samplers skip the columns and evaluate coins
  // straight off the arcs; forcing columns in must not change a bit, in
  // either tier.
  const UncertainGraph g = testing::RandomSmallGraph(60, 0.03, 515);
  ASSERT_FALSE(CoinColumns::Worthwhile(g));
  const std::vector<NodeId> candidates = AllNodes(g);
  const WorldFlags direct = SampleWorlds(g, candidates, 600, 5, nullptr,
                                         simd::SimdTier::kScalar, nullptr);
  const CoinColumns cols = CoinColumns::Build(g);
  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
    EXPECT_TRUE(SampleWorlds(g, candidates, 600, 5, &cols, tier, nullptr) ==
                direct)
        << "tier=" << simd::SimdTierName(tier);
  }
}

TEST(SimdIdentityTest, ReverseSamplingIsIdenticalAcrossTiersAndThreads) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.12, 2024);
  ASSERT_TRUE(CoinColumns::Worthwhile(g));
  const std::vector<NodeId> candidates = AllNodes(g);
  const WorldFlags reference = SampleWorlds(g, candidates, 800, 7, nullptr,
                                            simd::SimdTier::kScalar, nullptr);
  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
      EXPECT_TRUE(SampleWorlds(g, candidates, 800, 7, nullptr, tier, pool) ==
                  reference)
          << "tier=" << simd::SimdTierName(tier);
    }
  }
}

TEST(SimdIdentityTest, BottomKRunIsIdenticalAcrossTiersThreadsAndWaves) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.12, 4711);
  const std::vector<NodeId> candidates = AllNodes(g);
  BottomKRunOptions serial_scalar;
  serial_scalar.simd_tier = simd::SimdTier::kScalar;
  const Result<BottomKRunStats> reference =
      RunBottomKSampling(g, candidates, 1500, 3, 8, 99, serial_scalar);
  ASSERT_TRUE(reference.ok());

  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
      BottomKRunOptions run;
      run.pool = pool;
      run.simd_tier = tier;
      const Result<BottomKRunStats> stats =
          RunBottomKSampling(g, candidates, 1500, 3, 8, 99, run);
      ASSERT_TRUE(stats.ok());
      const std::string what = std::string("tier=") + simd::SimdTierName(tier);
      EXPECT_EQ(stats->samples_processed, reference->samples_processed) << what;
      EXPECT_EQ(stats->early_stopped, reference->early_stopped) << what;
      EXPECT_EQ(stats->nodes_touched, reference->nodes_touched) << what;
      EXPECT_EQ(stats->reached_bk, reference->reached_bk) << what;
      ASSERT_EQ(stats->estimates.size(), reference->estimates.size());
      for (std::size_t c = 0; c < stats->estimates.size(); ++c) {
        EXPECT_EQ(stats->estimates[c], reference->estimates[c])
            << what << " candidate " << c;
      }
    }
  }
}

TEST(SimdIdentityTest, FullDetectTranscriptsIdenticalAcrossTiersAndThreads) {
  const UncertainGraph graphs[] = {testing::PaperExampleGraph(0.3),
                                   testing::RandomSmallGraph(50, 0.1, 321)};
  ThreadPool pool2(2), pool7(7);
  for (const UncertainGraph& g : graphs) {
    for (const Method method : AllMethods()) {
      DetectorOptions reference_options;
      reference_options.method = method;
      reference_options.k = 3;
      reference_options.simd_mode = simd::SimdMode::kScalar;
      const Result<DetectionResult> reference =
          DetectTopK(g, reference_options);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      for (const simd::SimdMode mode :
           {simd::SimdMode::kAuto, simd::SimdMode::kScalar,
            simd::SimdMode::kAvx2, simd::SimdMode::kAvx512}) {
        for (ThreadPool* pool :
             {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
          DetectorOptions options = reference_options;
          options.simd_mode = mode;
          options.pool = pool;
          const Result<DetectionResult> got = DetectTopK(g, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameResult(*reference, *got,
                           std::string(MethodName(method)) + " simd=" +
                               simd::SimdModeName(mode));
        }
      }
    }
  }
}

// The coin counters cover the block kernel's methods too: a scalar run
// flips every coin one at a time, an AVX2 run batches the seeding coins and
// flips the same number, and an AVX-512 run batches the seeding coins and
// whole eight-lane edge blocks, so it counts at least as many. The block
// telemetry reaches the result: visits and open coins do not depend on the
// tier, and only AVX-512 evaluates more edge lanes than open coins.
TEST(SimdIdentityTest, BlockKernelMethodsReportCoinTelemetry) {
  const UncertainGraph g = testing::RandomSmallGraph(50, 0.1, 321);
  for (const Method method : {Method::kNaive, Method::kSampleNaive,
                              Method::kSampleReverse, Method::kBsr}) {
    DetectorOptions options;
    options.method = method;
    options.k = 3;
    options.simd_mode = simd::SimdMode::kScalar;
    const Result<DetectionResult> scalar = DetectTopK(g, options);
    options.simd_mode = simd::SimdMode::kAvx2;
    const Result<DetectionResult> avx2 = DetectTopK(g, options);
    options.simd_mode = simd::SimdMode::kAvx512;
    const Result<DetectionResult> avx512 = DetectTopK(g, options);
    ASSERT_TRUE(scalar.ok() && avx2.ok() && avx512.ok());
    const std::string what = MethodName(method);
    EXPECT_EQ(scalar->simd_batched_coins, 0u) << what;
    EXPECT_GT(scalar->simd_tail_coins, 0u) << what;
    EXPECT_EQ(avx2->simd_batched_coins + avx2->simd_tail_coins,
              scalar->simd_tail_coins)
        << what;
    if (simd::Avx2Available()) {
      EXPECT_GT(avx2->simd_batched_coins, 0u) << what;
    }
    if (simd::Avx512Available()) {
      EXPECT_EQ(avx512->simd_tail_coins, 0u) << what;
      EXPECT_GE(avx512->simd_batched_coins, scalar->simd_tail_coins) << what;
    }
    EXPECT_GT(scalar->node_visits, 0u) << what;
    EXPECT_GT(scalar->open_coins, 0u) << what;
    EXPECT_EQ(scalar->edge_lanes, scalar->open_coins) << what;
    for (const DetectionResult* vector : {&*avx2, &*avx512}) {
      EXPECT_EQ(vector->node_visits, scalar->node_visits) << what;
      EXPECT_EQ(vector->open_coins, scalar->open_coins) << what;
    }
    EXPECT_EQ(avx2->edge_lanes, avx2->open_coins) << what;
    EXPECT_GE(avx512->edge_lanes, avx512->open_coins) << what;
  }
}

// A warm context must serve the same bits as a cold run when the tiers of
// the warming query and the served query differ: cached sample orders are
// tier-independent by construction.
TEST(SimdIdentityTest, WarmContextServesIdenticalBitsAcrossTiers) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.15, 777);
  DetectorOptions scalar_options;
  scalar_options.k = 3;
  scalar_options.simd_mode = simd::SimdMode::kScalar;
  DetectorOptions avx2_options = scalar_options;
  avx2_options.simd_mode = simd::SimdMode::kAvx2;

  DetectorOptions avx512_options = scalar_options;
  avx512_options.simd_mode = simd::SimdMode::kAvx512;

  const Result<DetectionResult> cold = DetectTopK(g, scalar_options);
  ASSERT_TRUE(cold.ok());

  DetectionContext warmed_by_avx2;
  ASSERT_TRUE(DetectTopK(g, avx2_options, &warmed_by_avx2).ok());
  const Result<DetectionResult> warm_scalar =
      DetectTopK(g, scalar_options, &warmed_by_avx2);
  ASSERT_TRUE(warm_scalar.ok());
  EXPECT_GT(warmed_by_avx2.reuse_hits, 0u);
  ExpectSameResult(*cold, *warm_scalar, "warm avx2 -> scalar");

  DetectionContext warmed_by_avx512;
  ASSERT_TRUE(DetectTopK(g, avx512_options, &warmed_by_avx512).ok());
  const Result<DetectionResult> warm_avx2 =
      DetectTopK(g, avx2_options, &warmed_by_avx512);
  ASSERT_TRUE(warm_avx2.ok());
  EXPECT_GT(warmed_by_avx512.reuse_hits, 0u);
  ExpectSameResult(*cold, *warm_avx2, "warm avx512 -> avx2");
}

}  // namespace
}  // namespace vulnds
