// The serve stack's observability surface: metric coverage of the
// `metrics` exposition, per-stage latency accounting, slow-query logging
// through the engine, deterministic clocks, and the stats() contract (the
// views read the very registry series the scrape renders).

#include <gtest/gtest.h>

#include <time.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "serve/query_engine.h"
#include "serve/session.h"
#include "testing/test_graphs.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds::serve {
namespace {

// Deterministic clock advanced by hand from the test body.
struct FakeClock {
  std::shared_ptr<int64_t> now = std::make_shared<int64_t>(0);
  obs::ClockMicros fn() const {
    auto held = now;
    return [held] { return *held; };
  }
};

// This thread's CPU time in microseconds. Time the scheduler takes away
// from the thread (a loaded machine, a sanitizer run) does not advance it.
int64_t ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

DetectorOptions SmallDetect(std::size_t k = 3) {
  DetectorOptions options;
  options.k = k;
  return options;
}

// What the `metrics` verb answers, without the ok/. framing.
std::string Scrape(GraphCatalog& catalog) {
  catalog.RefreshMetrics();
  return catalog.registry()->RenderPrometheus();
}

TEST(MetricsExportTest, ExpositionCoversEveryServeSubsystem) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());  // cold
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());  // cached
  ASSERT_TRUE(engine.Truth("g", 50, 7).ok());

  ServerStats server(*engine.registry());
  server.sessions_started->Increment(3);
  server.requests->Increment(17);
  const std::string text = Scrape(catalog);

  // Engine request counters and latency histograms, by verb and outcome.
  EXPECT_NE(text.find("vulnds_engine_requests_total{verb=\"detect\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_engine_requests_total{verb=\"truth\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_engine_request_micros_bucket{verb=\"detect\","
                      "cached=\"1\",le=\"+Inf\"} 1"),
            std::string::npos);
  // Per-stage detect latency histograms (the cold run fills them).
  EXPECT_NE(text.find("vulnds_engine_stage_micros_count{stage=\"bounds\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("vulnds_engine_stage_micros_count{stage=\"cache_lookup\"}"),
      std::string::npos);
  // Result-cache families, per cache.
  EXPECT_NE(text.find("vulnds_cache_hits_total{cache=\"detect\"} 1"),
            std::string::npos);
  // Catalog aggregate families.
  EXPECT_NE(text.find("vulnds_catalog_resident_graphs 1"), std::string::npos);
  // Neither structure is sharded, so no per-shard family is exported.
  EXPECT_EQ(text.find("_shard_"), std::string::npos);
  // Sampler state kept by pool threads, outside the governed budget.
  EXPECT_NE(text.find("\nvulnds_sampler_scratch_bytes " +
                      std::to_string(SamplerScratchBytes()) + "\n"),
            std::string::npos);
  // Server counters, counted in place by ServerStats.
  EXPECT_NE(text.find("vulnds_server_sessions_started_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_server_requests_total 17"), std::string::npos);
}

TEST(MetricsExportTest, NullServerStatsOmitsServerFamilies) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  const std::string text = Scrape(catalog);
  EXPECT_EQ(text.find("vulnds_server_"), std::string::npos);
  EXPECT_NE(text.find("vulnds_engine_requests_total"), std::string::npos);
}

TEST(MetricsExportTest, StatsVerbCountersMatchRegistryBackedStats) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());
  ASSERT_TRUE(engine.Truth("g", 50, 7).ok());

  // The registry counters ARE the stats() source: they must agree exactly,
  // preserving the old EngineStats (and thus `stats` verb) numbers.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.detect_queries, 2u);
  EXPECT_EQ(stats.truth_queries, 1u);
  obs::MetricRegistry* registry = engine.registry();
  EXPECT_EQ(registry
                ->GetCounter("vulnds_engine_requests_total", "",
                             {{"verb", "detect"}})
                ->Value(),
            stats.detect_queries);
  EXPECT_EQ(registry
                ->GetCounter("vulnds_engine_requests_total", "",
                             {{"verb", "truth"}})
                ->Value(),
            stats.truth_queries);
}

TEST(MetricsExportTest, ColdDetectStageMicrosSumCloseToTotal) {
  GraphCatalog catalog;
  // Large enough that the measured stages dominate the fixed between-stage
  // bookkeeping (a few tens of microseconds).
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(120, 0.10, 9)).ok());
  std::ostringstream sink;
  obs::SlowQueryLog slowlog(&sink, 0);  // log every query
  QueryEngineOptions engine_options;
  engine_options.slowlog = &slowlog;
  // The engine has no pool, so every stage runs on this thread: on its CPU
  // clock, preemption between stages stops counting as uncovered time.
  engine_options.clock = ThreadCpuMicros;
  QueryEngine engine(&catalog, engine_options);

  DetectorOptions options = SmallDetect(5);
  Result<DetectResponse> response = engine.Detect("g", options);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->from_cache);
  ASSERT_EQ(slowlog.logged(), 1u);

  // Parse total_micros and the stage micros out of the JSONL record.
  const std::string line = sink.str();
  const auto total_pos = line.find("\"total_micros\":");
  ASSERT_NE(total_pos, std::string::npos);
  const int64_t total = std::stoll(line.substr(total_pos + 15));
  int64_t stage_sum = 0;
  std::size_t pos = 0;
  while ((pos = line.find("\"micros\":", pos)) != std::string::npos) {
    pos += 9;
    stage_sum += std::stoll(line.substr(pos));
  }
  ASSERT_GT(total, 0);
  // Acceptance gate: the per-stage spans account for the query. The 10%
  // margin needs total >> the fixed gap overhead; allow a small absolute
  // slack so a fast machine racing through a small graph cannot flake.
  // Sanitizer instrumentation inflates the untracked inter-stage gaps
  // (clock reads, allocator hooks), so the absolute slack is wider there.
  int64_t gap_slack = 120;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  gap_slack = 500;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  gap_slack = 500;
#endif
#endif
  EXPECT_GE(stage_sum, total - std::max<int64_t>(total / 10, gap_slack))
      << "stages miss too much of the total: " << line;
  EXPECT_LE(stage_sum, total) << line;
}

TEST(MetricsExportTest, SlowQueryLogRecordsVerbGraphAndCacheOutcome) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  std::ostringstream sink;
  obs::SlowQueryLog slowlog(&sink, 0);
  QueryEngineOptions engine_options;
  engine_options.slowlog = &slowlog;
  QueryEngine engine(&catalog, engine_options);

  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());
  ASSERT_TRUE(engine.Truth("g", 50, 7).ok());
  EXPECT_EQ(slowlog.logged(), 3u);

  std::istringstream lines(sink.str());
  std::string cold, cached, truth;
  ASSERT_TRUE(std::getline(lines, cold));
  ASSERT_TRUE(std::getline(lines, cached));
  ASSERT_TRUE(std::getline(lines, truth));
  EXPECT_NE(cold.find("\"verb\":\"detect\""), std::string::npos);
  EXPECT_NE(cold.find("\"graph\":\"g\""), std::string::npos);
  EXPECT_NE(cold.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(cold.find("\"options\":\"method="), std::string::npos);
  EXPECT_NE(cached.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(truth.find("\"verb\":\"truth\""), std::string::npos);
}

TEST(MetricsExportTest, SlowlogThresholdSkipsFastQueries) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  std::ostringstream sink;
  obs::SlowQueryLog slowlog(&sink, 60'000'000);  // one minute: nothing logs
  QueryEngineOptions engine_options;
  engine_options.slowlog = &slowlog;
  QueryEngine engine(&catalog, engine_options);
  ASSERT_TRUE(engine.Detect("g", SmallDetect()).ok());
  EXPECT_EQ(slowlog.logged(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

TEST(MetricsExportTest, ConstantClockMakesResponseTimeZero) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  FakeClock clock;
  QueryEngineOptions engine_options;
  engine_options.clock = clock.fn();
  QueryEngine engine(&catalog, engine_options);

  Result<DetectResponse> response = engine.Detect("g", SmallDetect());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->seconds, 0.0);  // time= token becomes "time=0"
  Result<TruthResponse> truth = engine.Truth("g", 50, 7);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(truth->seconds, 0.0);
  EXPECT_EQ(engine.NowMicros(), 0);
}

TEST(MetricsExportTest, WaveTelemetryFlowsIntoRegistry) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(60, 0.2, 11)).ok());
  QueryEngine engine(&catalog);
  DetectorOptions options;
  options.k = 4;
  options.method = Method::kBsrbk;
  ASSERT_TRUE(engine.Detect("g", options).ok());
  const EngineStats stats = engine.stats();
  obs::MetricRegistry* registry = engine.registry();
  EXPECT_EQ(
      registry->GetCounter("vulnds_engine_waves_issued_total", "")->Value(),
      stats.waves_issued);
  EXPECT_EQ(
      registry->GetCounter("vulnds_engine_worlds_wasted_total", "")->Value(),
      stats.worlds_wasted);
}

}  // namespace
}  // namespace vulnds::serve
