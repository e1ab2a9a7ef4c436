// Concurrent sessions: many RunServeLoop sessions on their own threads over
// one shared engine must behave like the same sessions run alone —
// byte-identical responses. The one
// nondeterministic byte in the protocol, the wall-clock time= token, is
// pinned by injecting a constant clock into the engine and the update
// manager, so transcripts compare EXACTLY — no token stripping. These tests
// run under the TSan CI job like the rest of the suite, so interleavings
// are also race-checked.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "serve/server.h"
#include "testing/snapshot_bytes.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

using testing::WriteTempGraph;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Constant clock: every time= token renders as time=0, every transcript is
// bit-deterministic.
obs::ClockMicros ZeroClock() {
  return [] { return int64_t{0}; };
}

QueryEngineOptions FixedClockOptions() {
  QueryEngineOptions options;
  options.clock = ZeroClock();
  return options;
}

// Runs one RunServeLoop per stream pair, each on its own thread, over one
// engine and one ServerStats; returns when every session has ended.
void RunConcurrently(QueryEngine& engine, UpdateBackend* updates,
                     ServerStats* stats, std::vector<std::istringstream>& ins,
                     std::vector<std::ostringstream>& outs) {
  std::vector<std::thread> sessions;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    sessions.emplace_back([&, i] {
      RunServeLoop(ins[i], outs[i], engine, updates, stats);
    });
  }
  for (std::thread& session : sessions) session.join();
}

// One disjoint-graph session script: load, cold detect, cached detect,
// stage + commit, detect the new version.
std::string SessionScript(const std::string& name, const std::string& path) {
  return "load " + name + " " + path + "\n" +
         "detect " + name + " 3 BSRBK seed=7\n" +
         "detect " + name + " 3 BSRBK seed=7\n" +
         "addedge " + name + " 0 1 0.25\n" +
         "commit " + name + "\n" +
         "detect " + name + "@v1 3 BSRBK seed=7\n" +
         "quit\n";
}

TEST(ConcurrentSessionsTest, ConcurrentDisjointSessionsMatchSerialTranscripts) {
  constexpr int kSessions = 4;
  std::vector<std::string> paths, scripts, baselines;
  for (int i = 0; i < kSessions; ++i) {
    const std::string name = "g" + std::to_string(i);
    paths.push_back(WriteTempGraph(
        testing::RandomSmallGraph(24, 0.2, 100 + i), "ssrv_" + name + ".snap"));
    scripts.push_back(SessionScript(name, paths.back()));
    // Baseline: the same script alone on a fresh engine.
    GraphCatalog catalog;
    QueryEngine engine(&catalog, FixedClockOptions());
    dyn::UpdateManager updates(&catalog, ZeroClock());
    std::istringstream in(scripts.back());
    std::ostringstream out;
    RunServeLoop(in, out, engine, &updates);
    baselines.push_back(out.str());
  }

  GraphCatalog catalog;
  QueryEngine engine(&catalog, FixedClockOptions());
  dyn::UpdateManager updates(&catalog, ZeroClock());
  ServerStats stats(*engine.registry());
  std::vector<std::istringstream> ins;
  std::vector<std::ostringstream> outs(kSessions);
  for (int i = 0; i < kSessions; ++i) ins.emplace_back(scripts[i]);
  RunConcurrently(engine, &updates, &stats, ins, outs);

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(outs[i].str(), baselines[i])
        << "session " << i << " diverged from its single-session transcript";
  }
  EXPECT_EQ(stats.sessions_started->Value(),
            static_cast<std::size_t>(kSessions));
  EXPECT_EQ(stats.sessions_finished->Value(),
            static_cast<std::size_t>(kSessions));
  // 7 non-blank lines per script.
  EXPECT_EQ(stats.requests->Value(), static_cast<std::size_t>(7 * kSessions));
  EXPECT_EQ(stats.errors->Value(), 0u);
  EXPECT_EQ(stats.updates->Value(), static_cast<std::size_t>(2 * kSessions));
}

TEST(ConcurrentSessionsTest, SameGraphConcurrentCachedQueriesAreBitIdentical) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog, FixedClockOptions());
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(24, 0.2, 11)).ok());
  ServerStats stats(*engine.registry());

  // Baseline: one session answers the query once (cold), then cached.
  const std::string query = "detect g 3 BSRBK seed=5\n";
  std::istringstream warm_in(query + "quit\n");
  std::ostringstream warm_out;
  RunServeLoop(warm_in, warm_out, engine, nullptr, &stats);
  std::vector<std::string> baseline = Lines(warm_out.str());
  baseline.pop_back();  // "ok bye"
  // After warm-up every response must be the cached block.
  ASSERT_FALSE(baseline.empty());

  constexpr int kSessions = 6;
  constexpr int kRepeats = 10;
  std::string script;
  for (int r = 0; r < kRepeats; ++r) script += query;
  script += "quit\n";
  std::vector<std::istringstream> ins;
  std::vector<std::ostringstream> outs(kSessions);
  for (int i = 0; i < kSessions; ++i) ins.emplace_back(script);
  RunConcurrently(engine, nullptr, &stats, ins, outs);

  // The cached block, with cached=1 in the header.
  std::vector<std::string> cached_block = baseline;
  ASSERT_NE(cached_block[0].find("cached=0"), std::string::npos);
  cached_block[0].replace(cached_block[0].find("cached=0"), 8, "cached=1");
  std::vector<std::string> expected;
  for (int r = 0; r < kRepeats; ++r) {
    expected.insert(expected.end(), cached_block.begin(), cached_block.end());
  }
  expected.push_back("ok bye");
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(Lines(outs[i].str()), expected) << "session " << i;
  }
}

TEST(ConcurrentSessionsTest, InterleavedUpdatesOnSharedGraphApplyExactlyOnce) {
  // Two sessions stage one edge each on the SAME graph and both commit.
  // The staging area is shared, so which commit carries which ops is a
  // race — but every op lands exactly once: the ops summed over versions
  // must equal the two staged edges, whatever the interleaving.
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  dyn::UpdateManager updates(&catalog);
  ASSERT_TRUE(catalog.Put("g", testing::PaperExampleGraph(0.2)).ok());
  ServerStats stats(*engine.registry());

  std::vector<std::istringstream> ins;
  ins.emplace_back("addedge g 4 0 0.5\ncommit g\nquit\n");
  ins.emplace_back("addedge g 4 1 0.5\ncommit g\nquit\n");
  std::vector<std::ostringstream> outs(2);
  RunConcurrently(engine, &updates, &stats, ins, outs);

  std::istringstream check_in("versions g\nquit\n");
  std::ostringstream check_out;
  RunServeLoop(check_in, check_out, engine, &updates, &stats);
  std::size_t total_ops = 0;
  std::istringstream lines(check_out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t pos = line.find(" ops=");
    if (pos == std::string::npos || line.rfind("v", 0) != 0) continue;
    total_ops += std::stoul(line.substr(pos + 5));
  }
  EXPECT_EQ(total_ops, 2u) << check_out.str();
  EXPECT_EQ(stats.sessions_finished->Value(), 3u);
  // Both addedges always succeed; a commit can race to an empty staging
  // area and answer err, so updates is 3 or 4 and errors the complement.
  EXPECT_GE(stats.updates->Value(), 3u);
  EXPECT_LE(stats.updates->Value(), 4u);
  EXPECT_EQ(stats.errors->Value(), 4u - stats.updates->Value());
}

TEST(ConcurrentSessionsTest, StatsVerbReportsServerAndShardDetail) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  ASSERT_TRUE(catalog.Put("g", testing::ChainGraph(0.3, 0.6)).ok());
  ServerStats stats(*engine.registry());
  std::istringstream in("detect g 2\nstats\nquit\n");
  std::ostringstream out;
  RunServeLoop(in, out, engine, nullptr, &stats);
  const std::string text = out.str();
  EXPECT_NE(text.find("batched_queries=0"), std::string::npos) << text;
  EXPECT_NE(text.find("catalog_bytes="), std::string::npos);
  // The catalog and the result caches are unsharded: no shard lines.
  EXPECT_EQ(text.find("shard"), std::string::npos) << text;
  EXPECT_NE(text.find("worlds_wasted="), std::string::npos);
  EXPECT_NE(text.find("waves_issued="), std::string::npos);
  EXPECT_NE(text.find("context_bytes="), std::string::npos);
  EXPECT_NE(text.find("server sessions_started=1 sessions_finished=0 "
                      "requests=2 errors=0 updates=0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve requests=2 errors=0 updates=0"),
            std::string::npos);
}

TEST(ConcurrentSessionsTest, MetricsVerbRendersPrometheusExposition) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog, FixedClockOptions());
  ASSERT_TRUE(catalog.Put("g", testing::ChainGraph(0.3, 0.6)).ok());
  ServerStats stats(*engine.registry());
  std::istringstream in("detect g 2\nmetrics\nquit\n");
  std::ostringstream out;
  RunServeLoop(in, out, engine, nullptr, &stats);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok metrics\n"), std::string::npos) << text;
  // Engine, cache, catalog and server families all flow through the one
  // registry the verb renders.
  EXPECT_NE(text.find("# TYPE vulnds_engine_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_engine_requests_total{verb=\"detect\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vulnds_engine_stage_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_cache_misses_total{cache=\"detect\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_catalog_resident_graphs 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vulnds_server_sessions_started_total 1\n"),
            std::string::npos);
  // The block ends with the protocol terminator on its own line.
  EXPECT_NE(text.find("\n.\n"), std::string::npos);
}

TEST(ConcurrentSessionsTest, ConcurrentColdSameGraphQueriesBatchCorrectly) {
  // Distinct seeds on one graph issued concurrently: whichever requests
  // overlap wait on the graph's context lock (batched_queries counts them,
  // timing-dependent), and every response must match its single-session
  // counterpart computed on a fresh engine.
  constexpr int kSessions = 4;
  std::vector<std::string> scripts, baselines;
  const std::string path =
      WriteTempGraph(testing::RandomSmallGraph(24, 0.2, 42), "ssrv_batch.snap");
  for (int i = 0; i < kSessions; ++i) {
    scripts.push_back("detect shared 3 BSRBK seed=" + std::to_string(200 + i) +
                      "\nquit\n");
    GraphCatalog catalog;
    QueryEngine engine(&catalog, FixedClockOptions());
    ASSERT_TRUE(catalog.Load("shared", path).ok());
    std::istringstream in(scripts.back());
    std::ostringstream out;
    RunServeLoop(in, out, engine);
    baselines.push_back(out.str());
  }

  GraphCatalog catalog;
  QueryEngine engine(&catalog, FixedClockOptions());
  ASSERT_TRUE(catalog.Load("shared", path).ok());
  ServerStats stats(*engine.registry());
  std::vector<std::istringstream> ins;
  std::vector<std::ostringstream> outs(kSessions);
  for (int i = 0; i < kSessions; ++i) ins.emplace_back(scripts[i]);
  RunConcurrently(engine, nullptr, &stats, ins, outs);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(outs[i].str(), baselines[i]) << "session " << i;
  }
  EXPECT_EQ(engine.stats().detect_queries,
            static_cast<std::size_t>(kSessions));
}

}  // namespace
}  // namespace vulnds::serve
