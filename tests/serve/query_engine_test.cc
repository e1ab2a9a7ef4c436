#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "store/memory_governor.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.topk, b.topk);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]);  // bit-exact
  }
}

// An engine over its own catalog holding `graph` as "g", sampling on
// `pool`; the result cache is off unless `cache` is set.
struct PooledEngine {
  PooledEngine(const UncertainGraph& graph, ThreadPool* pool, bool cache) {
    EXPECT_TRUE(catalog.Put("g", graph).ok());
    QueryEngineOptions options;
    options.pool = pool;
    if (!cache) options.result_cache_capacity = 0;
    engine = std::make_unique<QueryEngine>(&catalog, options);
  }
  GraphCatalog catalog;
  std::unique_ptr<QueryEngine> engine;
};

TEST(CanonicalizeOptionsTest, IrrelevantFieldsNormalized) {
  DetectorOptions a;
  a.method = Method::kBsr;
  a.k = 5;
  a.bk = 99;               // BSR never reads bk
  a.naive_samples = 1234;  // nor the naive budget
  DetectorOptions b;
  b.method = Method::kBsr;
  b.k = 5;
  EXPECT_EQ(CanonicalOptionsKey(a), CanonicalOptionsKey(b));
}

TEST(CanonicalizeOptionsTest, RelevantFieldsKept) {
  DetectorOptions a;
  a.method = Method::kBsrbk;
  a.bk = 8;
  DetectorOptions b;
  b.method = Method::kBsrbk;
  b.bk = 16;
  EXPECT_NE(CanonicalOptionsKey(a), CanonicalOptionsKey(b));
  DetectorOptions c;
  c.seed = 1;
  DetectorOptions d;
  d.seed = 2;
  EXPECT_NE(CanonicalOptionsKey(c), CanonicalOptionsKey(d));
}

TEST(QueryEngineTest, DetectUnknownGraphIsNotFound) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  DetectorOptions options;
  EXPECT_EQ(engine.Detect("ghost", options).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryEngineTest, SecondIdenticalDetectServedFromCache) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  Result<DetectResponse> first = engine.Detect("g", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  Result<DetectResponse> second = engine.Detect("g", options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  ExpectSameResult(first->result, second->result);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.detect_queries, 2u);
  EXPECT_EQ(stats.result_cache.hits, 1u);
}

TEST(QueryEngineTest, DifferentOptionsMissTheCache) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  options.k = 4;
  Result<DetectResponse> other = engine.Detect("g", options);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->from_cache);
}

TEST(QueryEngineTest, IrrelevantKnobsShareACacheLine) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.method = Method::kBsr;
  options.k = 3;
  options.bk = 16;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  options.bk = 64;  // BSR ignores bk, so this is the same query
  Result<DetectResponse> second = engine.Detect("g", options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
}

TEST(QueryEngineTest, ThreadsKnobIsExecutionOnly) {
  // The engine's pool width selects an execution, never an answer: an
  // engine of every width from 1 to 8 returns the bit-identical result, and
  // a request carrying some other pool shares the cache line its engine's
  // pool computed (parallel BSRBK is deterministic by construction).
  const UncertainGraph graph = testing::RandomSmallGraph(30, 0.15, 5);
  DetectorOptions options;
  options.method = Method::kBsrbk;
  options.k = 3;
  ThreadPool serial_pool(1);
  PooledEngine serial(graph, &serial_pool, /*cache=*/false);
  Result<DetectResponse> reference = serial.engine->Detect("g", options);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->from_cache);
  ThreadPool other_pool(2);
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    PooledEngine pooled(graph, &pool, /*cache=*/true);
    options.pool = nullptr;
    Result<DetectResponse> cold = pooled.engine->Detect("g", options);
    ASSERT_TRUE(cold.ok()) << "threads=" << threads;
    EXPECT_FALSE(cold->from_cache);
    ExpectSameResult(reference->result, cold->result);
    options.pool = &other_pool;
    Result<DetectResponse> again = pooled.engine->Detect("g", options);
    ASSERT_TRUE(again.ok()) << "threads=" << threads;
    EXPECT_TRUE(again->from_cache) << "the pool must not fragment the cache";
    ExpectSameResult(reference->result, again->result);
  }
}

TEST(QueryEngineTest, WaveScheduleIsExecutionOnly) {
  // The BSRBK wave schedule follows the pool width, never the answer: with
  // the cache off, an engine of every width from 1 to 8 returns the serial
  // result bit for bit, and only the parallel runs issue waves.
  const UncertainGraph graph = testing::RandomSmallGraph(30, 0.15, 5);
  DetectorOptions options;
  options.method = Method::kBsrbk;
  options.k = 3;
  ThreadPool serial_pool(1);
  PooledEngine serial_engine(graph, &serial_pool, /*cache=*/false);
  Result<DetectResponse> serial = serial_engine.engine->Detect("g", options);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->result.samples_processed, 0u)
      << "workload drifted: verification answered without sampling";
  EXPECT_EQ(serial->result.waves_issued, 0u);
  for (std::size_t threads = 2; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    PooledEngine pooled(graph, &pool, /*cache=*/false);
    Result<DetectResponse> parallel = pooled.engine->Detect("g", options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_FALSE(parallel->from_cache);
    EXPECT_GT(parallel->result.waves_issued, 0u) << "threads=" << threads;
    ExpectSameResult(serial->result, parallel->result);
  }
}

TEST(QueryEngineTest, WaveTelemetryCountsExecutedRunsOnly) {
  // worlds_wasted / waves_issued aggregate over executed detects; a cached
  // replay must not re-book the original run's schedule telemetry.
  ThreadPool pool(4);  // wave machinery engaged -> waves_issued > 0
  PooledEngine pooled(testing::RandomSmallGraph(40, 0.2, 7), &pool,
                      /*cache=*/true);
  QueryEngine& engine = *pooled.engine;
  DetectorOptions options;
  options.method = Method::kBsrbk;
  options.k = 2;
  Result<DetectResponse> cold = engine.Detect("g", options);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->result.samples_processed, 0u)
      << "workload drifted: verification answered without sampling";
  const EngineStats after_cold = engine.stats();
  EXPECT_EQ(after_cold.waves_issued, cold->result.waves_issued);
  EXPECT_EQ(after_cold.worlds_wasted, cold->result.worlds_wasted);
  EXPECT_GT(after_cold.waves_issued, 0u);
  Result<DetectResponse> cached = engine.Detect("g", options);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  const EngineStats after_cached = engine.stats();
  EXPECT_EQ(after_cached.waves_issued, after_cold.waves_issued);
  EXPECT_EQ(after_cached.worlds_wasted, after_cold.worlds_wasted);
}

TEST(QueryEngineTest, CacheIsPerGraph) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g1", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  ASSERT_TRUE(catalog.Put("g2", testing::RandomSmallGraph(30, 0.15, 6)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  ASSERT_TRUE(engine.Detect("g1", options).ok());
  Result<DetectResponse> other = engine.Detect("g2", options);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->from_cache);
}

TEST(QueryEngineTest, EngineResultMatchesDirectDetection) {
  const UncertainGraph g = testing::RandomSmallGraph(30, 0.15, 5);
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  Result<DetectionResult> direct = DetectTopK(g, options);
  ASSERT_TRUE(direct.ok());
  Result<DetectResponse> served = engine.Detect("g", options);
  ASSERT_TRUE(served.ok());
  ExpectSameResult(*direct, served->result);
}

TEST(QueryEngineTest, ContextWarmsAcrossDifferentQueries) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.method = Method::kBsr;
  options.k = 3;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  options.k = 4;  // different query, same bounds
  ASSERT_TRUE(engine.Detect("g", options).ok());
  const auto entry = catalog.Get("g");
  std::lock_guard<std::mutex> lock(entry->context_mu);
  EXPECT_GT(entry->context.reuse_hits, 0u);
}

TEST(QueryEngineTest, ReloadInvalidatesCachedResults) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  Result<DetectResponse> first = engine.Detect("g", options);
  ASSERT_TRUE(first.ok());
  // Replace the snapshot under the same name with a different graph.
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 99)).ok());
  Result<DetectResponse> after_reload = engine.Detect("g", options);
  ASSERT_TRUE(after_reload.ok());
  EXPECT_FALSE(after_reload->from_cache);
  Result<DetectionResult> direct =
      DetectTopK(testing::RandomSmallGraph(30, 0.15, 99), options);
  ASSERT_TRUE(direct.ok());
  ExpectSameResult(*direct, after_reload->result);
}

TEST(QueryEngineTest, EvictThenReloadDoesNotServeStaleResults) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 3;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  ASSERT_TRUE(catalog.Evict("g"));
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  Result<DetectResponse> after = engine.Detect("g", options);
  ASSERT_TRUE(after.ok());
  // Same graph data, but a fresh snapshot: the old cache line must not hit.
  EXPECT_FALSE(after->from_cache);
}

TEST(QueryEngineTest, InvalidRequestFailsEvenWithCanonicalTwinCached) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.method = Method::kNaive;
  options.k = 3;
  options.naive_samples = 200;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  // Method N ignores eps, so this canonicalizes to the cached key — but an
  // invalid request must fail identically warm or cold.
  options.eps = 7.0;
  EXPECT_EQ(engine.Detect("g", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, TruthCachedBySamplesAndSeed) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(20, 0.2, 5)).ok());
  QueryEngine engine(&catalog);
  Result<TruthResponse> first = engine.Truth("g", 200, 7);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  Result<TruthResponse> second = engine.Truth("g", 200, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(first->truth.probabilities, second->truth.probabilities);
  Result<TruthResponse> other_seed = engine.Truth("g", 200, 8);
  ASSERT_TRUE(other_seed.ok());
  EXPECT_FALSE(other_seed->from_cache);
}

// result_cache_capacity bounds each cache on its own: at capacity N, N
// detect results and N truth results all stay resident.
TEST(QueryEngineTest, CapacityBoundsEachCacheOnItsOwn) {
  constexpr std::size_t kCapacity = 3;
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(20, 0.2, 5)).ok());
  QueryEngineOptions engine_options;
  engine_options.result_cache_capacity = kCapacity;
  QueryEngine engine(&catalog, engine_options);
  DetectorOptions options;
  options.k = 3;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t seed = 1; seed <= kCapacity; ++seed) {
      options.seed = seed;
      Result<DetectResponse> detect = engine.Detect("g", options);
      ASSERT_TRUE(detect.ok()) << detect.status().ToString();
      EXPECT_EQ(detect->from_cache, pass == 1) << "detect seed " << seed;
      Result<TruthResponse> truth = engine.Truth("g", 200, seed);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      EXPECT_EQ(truth->from_cache, pass == 1) << "truth seed " << seed;
    }
  }
  EXPECT_EQ(engine.stats().result_cache.evictions, 0u);
}

// An engine's result-cache shedders die with it. Under an external budgeted
// governor with no spill dir, Puts over budget after the engine is gone
// shed through the catalog only, and never call into the dead caches.
TEST(QueryEngineTest, DestroyedEngineLeavesNoShedderBehind) {
  const UncertainGraph g = testing::RandomSmallGraph(30, 0.2, 5);
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = EstimateGraphBytes(g) * 3 / 2;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions catalog_options;
  catalog_options.governor = &governor;
  GraphCatalog catalog(catalog_options);
  ASSERT_TRUE(catalog.Put("a", g).ok());
  {
    QueryEngine engine(&catalog);
    DetectorOptions options;
    options.k = 3;
    ASSERT_TRUE(engine.Detect("a", options).ok());
  }
  ASSERT_TRUE(catalog.Put("b", g).ok());
  ASSERT_TRUE(catalog.Put("c", g).ok());
  EXPECT_GT(governor.total_charged(), governor_options.budget_bytes);
  EXPECT_EQ(governor.sheds(store::ChargeClass::kResult), 0u);
}

TEST(QueryEngineTest, InvalidOptionsPropagateStatus) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(10, 0.2, 5)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 0;
  EXPECT_EQ(engine.Detect("g", options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Truth("g", 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, ConcurrentIdenticalDetectsComputeOnce) {
  // Whatever the interleaving, an identical concurrent query either hits
  // the result cache outright, or waits on the graph's context lock and is
  // answered by the cache re-check under it — in every case the detection
  // runs (and the cache is filled) exactly once, and all callers see
  // identical bytes.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(24, 0.2, 17)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 4;
  options.seed = 23;
  constexpr int kThreads = 4;
  std::vector<Result<DetectResponse>> responses;
  for (int i = 0; i < kThreads; ++i) {
    responses.push_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { responses[i] = engine.Detect("g", options); });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_TRUE(responses[0].ok());
  for (int i = 1; i < kThreads; ++i) {
    ASSERT_TRUE(responses[i].ok()) << i;
    EXPECT_EQ(responses[0]->result.topk, responses[i]->result.topk);
    EXPECT_EQ(responses[0]->result.scores, responses[i]->result.scores);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.detect_queries, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.result_cache.inserts, 1u)
      << "the detection must have run exactly once";
}

TEST(QueryEngineTest, BatchedDistinctQueriesMatchSerialResults) {
  // Distinct seeds force distinct cache keys; concurrent issuance queues
  // them on the graph's context lock, and each result must equal the one a
  // serial engine computes.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(24, 0.2, 17)).ok());
  QueryEngine engine(&catalog);
  constexpr int kThreads = 4;
  std::vector<Result<DetectResponse>> responses;
  for (int i = 0; i < kThreads; ++i) {
    responses.push_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        DetectorOptions options;
        options.k = 4;
        options.seed = 500 + static_cast<uint64_t>(i);
        responses[i] = engine.Detect("g", options);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(responses[i].ok()) << i;
    GraphCatalog fresh_catalog;
    ASSERT_TRUE(
        fresh_catalog.Put("g", testing::RandomSmallGraph(24, 0.2, 17)).ok());
    QueryEngine fresh(&fresh_catalog);
    DetectorOptions options;
    options.k = 4;
    options.seed = 500 + static_cast<uint64_t>(i);
    const Result<DetectResponse> serial = fresh.Detect("g", options);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(serial->result.topk, responses[i]->result.topk);
    EXPECT_EQ(serial->result.scores, responses[i]->result.scores);
  }
}

TEST(QueryEngineTest, ColdDetectsWaitingOnTheContextLockAreCounted) {
  // Two identical cold detects find the graph's context held (as a running
  // detect holds it). Each is counted in batched_queries before it blocks;
  // once the lock is free, one computes and the other is answered by the
  // cache re-check under the lock.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(24, 0.2, 17)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 4;
  options.seed = 23;
  const auto entry = catalog.Get("g");
  ASSERT_NE(entry, nullptr);
  std::unique_lock<std::mutex> hold(entry->context_mu);
  std::vector<Result<DetectResponse>> responses;
  for (int i = 0; i < 2; ++i) responses.push_back(Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back(
        [&, i] { responses[i] = engine.Detect("g", options); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.stats().batched_queries < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t waiting = engine.stats().batched_queries;
  hold.unlock();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(waiting, 2u) << "both detects must count before blocking";
  ASSERT_TRUE(responses[0].ok());
  ASSERT_TRUE(responses[1].ok());
  ExpectSameResult(responses[0]->result, responses[1]->result);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.detect_queries, 2u);
  EXPECT_EQ(stats.result_cache.inserts, 1u)
      << "the detection must have run exactly once";
}

}  // namespace
}  // namespace vulnds::serve
