// Property tests for the wave-parallel bottom-k path: for EVERY thread
// count, and so for every wave schedule the counts produce,
// RunBottomKSampling must be bit-identical to the serial loop — same
// estimates, same early-stop position, same nodes_touched. The serial run
// is the specification; the parallel run is only allowed to change
// wall-clock time.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
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

// A graph big enough that worlds have non-trivial BFS work but early stop
// still fires for reachable bk: a noisy ring with chords.
UncertainGraph RingWithChords(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.SetSelfRisk(v, 0.05 + 0.4 * rng.NextDouble()));
  }
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.AddEdge(v, (v + 1) % n, rng.NextDouble()));
    if (rng.NextDouble() < 0.5) {
      const NodeId w = (v + 2 + rng.NextBounded(n - 3)) % n;
      if (w != v) testing::CheckOk(b.AddEdge(v, w, 0.5 * rng.NextDouble()));
    }
  }
  return b.Build().MoveValue();
}

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  return ids;
}

void ExpectBitIdentical(const BottomKRunStats& serial,
                        const BottomKRunStats& parallel, const char* what) {
  EXPECT_EQ(serial.samples_processed, parallel.samples_processed) << what;
  EXPECT_EQ(serial.total_samples, parallel.total_samples) << what;
  EXPECT_EQ(serial.nodes_touched, parallel.nodes_touched) << what;
  EXPECT_EQ(serial.early_stopped, parallel.early_stopped) << what;
  ASSERT_EQ(serial.estimates.size(), parallel.estimates.size()) << what;
  for (std::size_t c = 0; c < serial.estimates.size(); ++c) {
    EXPECT_EQ(serial.estimates[c], parallel.estimates[c])  // bit-exact
        << what << " candidate " << c;
    EXPECT_EQ(serial.reached_bk[c], parallel.reached_bk[c])
        << what << " candidate " << c;
  }
}

// The thread counts every property below sweeps: serial-by-width through
// eight workers (each count moves the wave boundaries: the ramp starts at
// one world per worker), plus the hardware width when it is wider.
std::vector<std::size_t> SweptThreadCounts() {
  std::vector<std::size_t> counts = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t hardware = std::thread::hardware_concurrency();
  if (hardware > counts.back()) counts.push_back(hardware);
  return counts;
}

TEST(BsrbkParallelTest, ThreadCountSweepIsBitIdentical) {
  const UncertainGraph g = RingWithChords(40, 97);
  const std::vector<NodeId> candidates = AllNodes(g);
  for (const std::size_t needed : {std::size_t{1}, std::size_t{3}}) {
    const auto serial =
        RunBottomKSampling(g, candidates, 500, needed, 8, 1234);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel =
          RunBottomKSampling(g, candidates, 500, needed, 8, 1234,
                             {nullptr, &pool});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("threads=" + std::to_string(threads) +
                          " needed=" + std::to_string(needed))
                             .c_str());
    }
  }
}

TEST(BsrbkParallelTest, WaveSizeNeverChangesResults) {
  // Wave boundaries must be invisible. Waves are capped by the budget t and
  // by 32 worlds per worker: sweep budgets that degenerate to one world,
  // fall below the worker count, sit between the caps, and exceed them.
  const UncertainGraph g = RingWithChords(25, 5);
  const std::vector<NodeId> candidates = AllNodes(g);
  for (const std::size_t t : {std::size_t{1}, std::size_t{7}, std::size_t{25},
                              std::size_t{100}, std::size_t{1000}}) {
    const auto serial = RunBottomKSampling(g, candidates, t, 2, 6, 77);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel =
          RunBottomKSampling(g, candidates, t, 2, 6, 77, {nullptr, &pool});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("t=" + std::to_string(t) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

// Every node defaults in every world (self-risk 1, no edges), so every
// candidate reaches bk at hash-order position bk exactly, whatever the
// seed. That makes the wave schedule predictable: with W workers no wave is
// shorter than the stop floor bk - (positions folded), and none longer than
// the cap of 32W worlds (t and the bitmap bytes are far above it here). So
// the first wave is min(bk, 32W) worlds; after it each candidate's prefix
// frequency is 1, and the next wave is max(W, bk - 32W) worlds.
UncertainGraph AlwaysDefaults(std::size_t n) {
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) testing::CheckOk(b.SetSelfRisk(v, 1.0));
  return b.Build().MoveValue();
}

// The most worlds one wave takes with `workers` workers on AlwaysDefaults.
std::size_t WaveCap(std::size_t workers) { return 32 * workers; }

TEST(BsrbkParallelTest, EarlyStopOnWaveBoundaryEdgeCases) {
  // The two hardest alignments, engineered per worker count W past a first
  // wave held at the cap: bk = cap + W stops on the LAST world of the second
  // wave (nothing wasted), bk = cap + 1 on the FIRST world of the second
  // wave (the rest of it, W - 1 worlds, wasted). Both must fold to the
  // serial answer, and the telemetry must show that the alignment was
  // actually hit.
  const UncertainGraph g = AlwaysDefaults(6);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 1000;
  for (const uint64_t seed : {3u, 31u, 314u}) {
    for (std::size_t workers = 2; workers <= 8; ++workers) {
      ThreadPool pool(workers);
      const std::size_t cap = WaveCap(workers);
      const struct {
        int bk;
        std::size_t wasted;
      } cases[] = {{static_cast<int>(cap + workers), 0},
                   {static_cast<int>(cap + 1), workers - 1}};
      for (const auto& c : cases) {
        const std::string what = "seed=" + std::to_string(seed) +
                                 " workers=" + std::to_string(workers) +
                                 " bk=" + std::to_string(c.bk);
        const auto serial = RunBottomKSampling(g, candidates, t, 1, c.bk, seed);
        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(serial->early_stopped);
        ASSERT_EQ(serial->samples_processed, static_cast<std::size_t>(c.bk));
        const auto parallel = RunBottomKSampling(g, candidates, t, 1, c.bk,
                                                 seed, {nullptr, &pool});
        ASSERT_TRUE(parallel.ok());
        ExpectBitIdentical(*serial, *parallel, what.c_str());
        EXPECT_EQ(parallel->waves_issued, 2u) << what;
        EXPECT_EQ(parallel->worlds_wasted, c.wasted) << what;
      }
    }
  }
}

TEST(BsrbkParallelTest, FirstWaveCoversTheStopFloor) {
  // No candidate can reach bk before bk worlds have folded, so with bk at
  // least the worker count the first wave is bk worlds and the stop falls
  // on its last world: one wave, nothing wasted.
  const UncertainGraph g = AlwaysDefaults(6);
  const std::vector<NodeId> candidates = AllNodes(g);
  for (std::size_t workers = 2; workers <= 8; ++workers) {
    ThreadPool pool(workers);
    for (const std::size_t bk :
         {workers, workers + 1, 2 * workers + 3, WaveCap(workers)}) {
      if (bk < 3) continue;
      const std::string what = "workers=" + std::to_string(workers) +
                               " bk=" + std::to_string(bk);
      const auto serial = RunBottomKSampling(g, candidates, 1000, 2,
                                             static_cast<int>(bk), 5);
      ASSERT_TRUE(serial.ok());
      const auto parallel = RunBottomKSampling(
          g, candidates, 1000, 2, static_cast<int>(bk), 5, {nullptr, &pool});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel, what.c_str());
      EXPECT_EQ(parallel->samples_processed, bk) << what;
      EXPECT_EQ(parallel->waves_issued, 1u) << what;
      EXPECT_EQ(parallel->worlds_wasted, 0u) << what;
    }
  }
}

TEST(BsrbkParallelTest, ClaimedCoinTelemetrySumsToTheSerialLoops) {
  // Workers claim worlds one at a time, so which task samples which world
  // varies from run to run, but each world's coins do not. With bk out of
  // reach every world is folded and none wasted, so the per-task coin
  // counts must sum to the serial loop's for every width and tier. The
  // graph is dense enough for coin columns, so the batched kernel runs.
  const UncertainGraph g = testing::RandomSmallGraph(60, 0.15, 8);
  ASSERT_TRUE(CoinColumns::Worthwhile(g));
  const std::vector<NodeId> candidates = AllNodes(g);
  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::SimdTier::kAvx2);
  for (const simd::SimdTier tier : tiers) {
    BottomKRunOptions run;
    run.simd_tier = tier;
    const auto serial = RunBottomKSampling(g, candidates, 300, 1, 400, 21, run);
    ASSERT_TRUE(serial.ok());
    ASSERT_FALSE(serial->early_stopped);
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      run.pool = &pool;
      const auto parallel =
          RunBottomKSampling(g, candidates, 300, 1, 400, 21, run);
      ASSERT_TRUE(parallel.ok());
      const std::string what = std::string(simd::SimdTierName(tier)) +
                               " threads=" + std::to_string(threads);
      ExpectBitIdentical(*serial, *parallel, what.c_str());
      EXPECT_EQ(parallel->worlds_wasted, 0u) << what;
      EXPECT_EQ(parallel->coin_stats.batched_coins,
                serial->coin_stats.batched_coins)
          << what;
      EXPECT_EQ(parallel->coin_stats.tail_coins, serial->coin_stats.tail_coins)
          << what;
    }
  }
}

TEST(BsrbkParallelTest, ExhaustedBudgetMatchesAcrossThreadCounts) {
  // No early stop (bk unreachable): every one of the t worlds is folded and
  // the prefix-frequency estimates must still match bit-exactly.
  UncertainGraphBuilder b(6);
  for (NodeId v = 0; v < 6; ++v) testing::CheckOk(b.SetSelfRisk(v, 0.02));
  const UncertainGraph g = b.Build().MoveValue();
  const std::vector<NodeId> candidates = AllNodes(g);
  const auto serial = RunBottomKSampling(g, candidates, 333, 1, 64, 9);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->early_stopped);
  EXPECT_EQ(serial->samples_processed, 333u);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    const auto parallel =
        RunBottomKSampling(g, candidates, 333, 1, 64, 9, {nullptr, &pool});
    ASSERT_TRUE(parallel.ok());
    ExpectBitIdentical(*serial, *parallel,
                       ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST(BsrbkParallelTest, PrecomputedOrderAndPoolCompose) {
  // The context-warm serving path hands in the sample order; the pool must
  // not perturb it.
  const UncertainGraph g = RingWithChords(20, 3);
  const std::vector<NodeId> candidates = AllNodes(g);
  const BottomKSampleOrder order = MakeBottomKSampleOrder(55, 400);
  BottomKRunOptions serial_run;
  serial_run.precomputed = &order;
  const auto serial = RunBottomKSampling(g, candidates, 400, 2, 8, 55, serial_run);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  const auto parallel =
      RunBottomKSampling(g, candidates, 400, 2, 8, 55, {&order, &pool});
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel, "precomputed order");
}

TEST(BsrbkParallelTest, SeedSweepPropertyAcrossThreadCounts) {
  // Broad property sweep: many (graph, seed) pairs, all thread counts.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const UncertainGraph g = RingWithChords(15 + seed % 7, seed * 13 + 1);
    const std::vector<NodeId> candidates = AllNodes(g);
    const auto serial =
        RunBottomKSampling(g, candidates, 200 + seed * 37, 2, 5, seed);
    ASSERT_TRUE(serial.ok());
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto parallel = RunBottomKSampling(
          g, candidates, 200 + seed * 37, 2, 5, seed, {nullptr, &pool});
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         ("seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

// Pool threads keep their samplers across queries; a query on a warm pool
// must answer exactly what it answers on a fresh one, whatever graphs the
// samplers saw before.
DetectionResult DetectBsrbk(const UncertainGraph& g, std::size_t k,
                            uint64_t seed, ThreadPool* pool) {
  DetectorOptions options;
  options.method = Method::kBsrbk;
  options.k = k;
  options.seed = seed;
  options.pool = pool;
  Result<DetectionResult> result = DetectTopK(g, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.MoveValue() : DetectionResult{};
}

void ExpectSameAnswer(const DetectionResult& want, const DetectionResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.topk, got.topk) << what;
  ASSERT_EQ(want.scores.size(), got.scores.size()) << what;
  for (std::size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&want.scores[i], &got.scores[i], sizeof(double)))
        << what << " score " << i;
  }
  EXPECT_EQ(want.samples_processed, got.samples_processed) << what;
  EXPECT_EQ(want.nodes_touched, got.nodes_touched) << what;
  EXPECT_EQ(want.early_stopped, got.early_stopped) << what;
}

TEST(BsrbkParallelTest, SamplerReuseAcrossGraphsIsBitIdentical) {
  const UncertainGraph large = RingWithChords(4000, 17);
  const UncertainGraph small = RingWithChords(300, 29);
  const struct {
    const UncertainGraph* graph;
    std::size_t k;
    uint64_t seed;
  } queries[] = {{&large, 40, 7}, {&small, 5, 8}, {&large, 25, 9}};
  ThreadPool shared(4);
  for (const auto& q : queries) {
    const std::string what = "n=" + std::to_string(q.graph->num_nodes()) +
                             " k=" + std::to_string(q.k);
    ThreadPool fresh(4);
    const DetectionResult want = DetectBsrbk(*q.graph, q.k, q.seed, &fresh);
    EXPECT_GT(want.waves_issued, 0u) << what;  // the pool path ran
    ExpectSameAnswer(want, DetectBsrbk(*q.graph, q.k, q.seed, &shared), what);
  }
}

TEST(BsrbkParallelTest, ConcurrentQueriesOnOnePoolMatchSerial) {
  // Two clients detect on different graphs through one shared pool, as the
  // serve engine's sessions do: pool threads alternate between the graphs
  // from task to task, and every answer must still be the serial one.
  const UncertainGraph graphs[2] = {RingWithChords(500, 41),
                                    RingWithChords(200, 43)};
  const std::size_t ks[2] = {8, 3};
  const DetectionResult want[2] = {DetectBsrbk(graphs[0], ks[0], 5, nullptr),
                                   DetectBsrbk(graphs[1], ks[1], 6, nullptr)};
  ThreadPool pool(4);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 200; ++round) {
        ExpectSameAnswer(want[c],
                         DetectBsrbk(graphs[c], ks[c], 5 + c, &pool),
                         "client " + std::to_string(c) + " round " +
                             std::to_string(round));
      }
    });
  }
  for (std::thread& client : clients) client.join();
}

TEST(BsrbkParallelTest, WarmPoolBuildsNoSamplersAndBoundsScratch) {
  // Each pool thread allocates its sampler's per-node state once; after
  // that a query on the same graph builds nothing, and the pool retains at
  // most its width times one sampler sized to the largest graph.
  const UncertainGraph g = RingWithChords(2000, 61);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t baseline = SamplerScratchBytes();
  {
    ThreadPool pool(4);
    const BottomKRunOptions run{nullptr, &pool};
    std::size_t built = 0;
    // Tasks go to whichever thread is free, so warm until every thread has
    // sampled once (one query normally suffices).
    for (int round = 0; round < 200 && built < pool.num_threads(); ++round) {
      const auto warmup = RunBottomKSampling(g, candidates, 4000, 8, 16,
                                             100 + round, run);
      ASSERT_TRUE(warmup.ok());
      built += warmup->samplers_built;
    }
    ASSERT_EQ(built, pool.num_threads());
    const auto warm = RunBottomKSampling(g, candidates, 4000, 8, 16, 99, run);
    ASSERT_TRUE(warm.ok());
    EXPECT_GT(warm->waves_issued, 0u);
    EXPECT_EQ(warm->samplers_built, 0u);
    EXPECT_EQ(SamplerScratchBytes() - baseline,
              pool.num_threads() * ReverseSampler::kStateBytesPerNode *
                  g.num_nodes());
    // A smaller graph reuses the larger state as it is.
    const UncertainGraph small = RingWithChords(100, 62);
    const auto small_run =
        RunBottomKSampling(small, AllNodes(small), 4000, 8, 16, 99, run);
    ASSERT_TRUE(small_run.ok());
    EXPECT_EQ(small_run->samplers_built, 0u);
    EXPECT_EQ(SamplerScratchBytes() - baseline,
              pool.num_threads() * ReverseSampler::kStateBytesPerNode *
                  g.num_nodes());
  }
  // The samplers die with their threads.
  EXPECT_EQ(SamplerScratchBytes(), baseline);
}

}  // namespace
}  // namespace vulnds
