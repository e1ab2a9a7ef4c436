// End-to-end scripted serve sessions over stringstreams: the same loop the
// CLI runs on stdin/stdout, without a process boundary.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "simd/dispatch.h"
#include "store/memory_governor.h"
#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

using testing::TestTempDir;
using testing::TestTempPath;
using testing::WriteTempGraph;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Runs a scripted session against a fresh engine; returns the full output.
// Updates are wired the same way the CLI wires them.
std::string RunScript(const std::string& script, ThreadPool* pool = nullptr) {
  GraphCatalog catalog;
  QueryEngineOptions options;
  options.pool = pool;
  QueryEngine engine(&catalog, options);
  dyn::UpdateManager updates(&catalog);
  std::istringstream in(script);
  std::ostringstream out;
  RunServeLoop(in, out, engine, &updates);
  return out.str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Runs a scripted session against a catalog whose governor budget is
// `budget_bytes` and whose cold snapshots spill to `spill_dir` (the CLI's
// mem_bytes= + spill_dir= wiring).
std::string RunSpillScript(const std::string& script, std::size_t budget_bytes,
                           const std::string& spill_dir) {
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes = budget_bytes;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions catalog_options;
  catalog_options.spill_dir = spill_dir;
  catalog_options.governor = &governor;
  GraphCatalog catalog(catalog_options);
  QueryEngine engine(&catalog);
  std::istringstream in(script);
  std::ostringstream out;
  RunServeLoop(in, out, engine);
  return out.str();
}

TEST(ServeLoopTest, LoadDetectQuitSession) {
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(30, 0.15, 5),
                                          "serve_a.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "detect g 3\n"
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok loaded g ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok detect g ", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("cached=0"), std::string::npos);
  EXPECT_EQ(lines.back(), "ok bye");
}

TEST(ServeLoopTest, RepeatedDetectIsCachedAndBitIdentical) {
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(30, 0.15, 5),
                                          "serve_b.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "detect g 3 BSRBK seed=7\n"
                                       "detect g 3 BSRBK seed=7\n"
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  // Locate the two detect response blocks (header ... payload ... ".").
  std::vector<std::size_t> headers;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("ok detect ", 0) == 0) headers.push_back(i);
  }
  ASSERT_EQ(headers.size(), 2u);
  EXPECT_NE(lines[headers[0]].find("cached=0"), std::string::npos);
  EXPECT_NE(lines[headers[1]].find("cached=1"), std::string::npos);
  // Payload lines (rank node score) must match exactly, digit for digit.
  std::vector<std::string> first_payload;
  for (std::size_t i = headers[0] + 1; lines[i] != "."; ++i) {
    first_payload.push_back(lines[i]);
  }
  std::vector<std::string> second_payload;
  for (std::size_t i = headers[1] + 1; lines[i] != "."; ++i) {
    second_payload.push_back(lines[i]);
  }
  EXPECT_EQ(first_payload.size(), 3u);
  EXPECT_EQ(first_payload, second_payload);
}

TEST(ServeLoopTest, MalformedLinesDoNotStopTheLoop) {
  const std::string path = WriteTempGraph(testing::ChainGraph(0.3, 0.6),
                                          "serve_c.graph", GraphFileFormat::kText);
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  std::istringstream in("frobnicate\n"
                        "detect nope 3\n"
                        "detect g abc\n"
                        "load g " + path + "\n"
                        "detect g 0\n"
                        "detect g 2\n"
                        "quit\n");
  std::ostringstream out;
  const ServeLoopStats stats = RunServeLoop(in, out, engine);
  const std::vector<std::string> lines = Lines(out.str());
  // Four errors (unknown verb, missing graph, bad k, k=0), then success.
  EXPECT_EQ(stats.errors, 4u);
  EXPECT_EQ(stats.requests, 7u);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("err ", 0), 0u);
  EXPECT_EQ(lines.back(), "ok bye");
  bool detect_succeeded = false;
  for (const std::string& line : lines) {
    if (line.rfind("ok detect g ", 0) == 0) detect_succeeded = true;
  }
  EXPECT_TRUE(detect_succeeded);
}

TEST(ServeLoopTest, EofEndsSessionWithoutQuit) {
  const std::string output = RunScript("catalog\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ok catalog", 0), 0u);
  EXPECT_EQ(lines.back(), ".");
}

TEST(ServeLoopTest, SaveRoundTripsThroughBinary) {
  const std::string text_path = WriteTempGraph(
      testing::PaperExampleGraph(0.2), "serve_d.graph", GraphFileFormat::kText);
  const std::string snap_path = TestTempPath("serve_d.snap");
  const std::string output = RunScript("load g " + text_path +
                                       "\n"
                                       "save g " + snap_path +
                                       "\n"
                                       "evict g\n"
                                       "load g2 " + snap_path +
                                       "\n"
                                       "stats g2\n"
                                       "quit\n");
  EXPECT_NE(output.find("ok saved g"), std::string::npos) << output;
  EXPECT_NE(output.find("ok evicted g"), std::string::npos);
  EXPECT_NE(output.find("ok loaded g2 nodes=5 edges=6"), std::string::npos);
  EXPECT_NE(output.find("nodes=5"), std::string::npos);
}

TEST(ServeLoopTest, SpilledGraphStillAnswersStatsAndSave) {
  // The budget fits one graph, so loading g2 spills g1. `stats g1` and
  // `save g1` must page it back in, not answer "not in the catalog".
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 11);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 22);
  const std::string p1 =
      WriteTempGraph(g1, "serve_spill_1.snap", GraphFileFormat::kBinary);
  const std::string p2 =
      WriteTempGraph(g2, "serve_spill_2.snap", GraphFileFormat::kBinary);
  const std::string saved = TestTempPath("serve_spill_saved.snap");
  const std::size_t budget =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) + 512;
  const std::string output = RunSpillScript(
      "load g1 " + p1 + "\nload g2 " + p2 + "\nstats\nstats g1\nsave g1 " +
          saved + "\nquit\n",
      budget, TestTempDir("spill"));
  EXPECT_NE(output.find("ok loaded g2"), std::string::npos) << output;
  EXPECT_NE(output.find("spilled_graphs=1"), std::string::npos) << output;
  EXPECT_NE(output.find("ok stats g1\nnodes=60"), std::string::npos)
      << output;
  EXPECT_NE(output.find("ok saved g1"), std::string::npos) << output;
  EXPECT_EQ(output.find("\nerr "), std::string::npos) << output;
  EXPECT_EQ(FileBytes(saved), FileBytes(p1));
}

TEST(ServeLoopTest, LoadUnderBudgetSmallerThanTheGraphAnswersOk) {
  // The governor spills the just-loaded graph at once; the load still
  // answers ok (it pages the graph back in to report its shape).
  const UncertainGraph g = testing::RandomSmallGraph(60, 0.2, 11);
  const std::string path =
      WriteTempGraph(g, "serve_spill_3.snap", GraphFileFormat::kBinary);
  const std::string output =
      RunSpillScript("load g " + path + "\nquit\n", EstimateGraphBytes(g) / 2,
                     TestTempDir("spill"));
  const std::vector<std::string> lines = Lines(output);
  ASSERT_EQ(lines.size(), 2u) << output;
  EXPECT_EQ(lines[0].rfind("ok loaded g nodes=60 ", 0), 0u) << lines[0];
}

TEST(ServeLoopTest, UpdateCommitVersionsSession) {
  const std::string path = WriteTempGraph(testing::PaperExampleGraph(0.2),
                                          "serve_u.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "addedge g 4 0 0.5\n"
                                       "setprob g 0 1 0.75\n"
                                       "deledge g 3 4\n"
                                       "commit g\n"
                                       "detect g@v1 2\n"
                                       "versions g\n"
                                       "quit\n");
  EXPECT_NE(output.find("ok addedge g 4 0 p=0.5 pending=1 live_edges=7"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("ok setprob g 0 1 p=0.75 pending=2 live_edges=7"),
            std::string::npos);
  EXPECT_NE(output.find("ok deledge g 3 4 pending=3 live_edges=6"),
            std::string::npos);
  EXPECT_NE(output.find("ok committed g@v1 nodes=5 edges=6 ops=3"),
            std::string::npos);
  EXPECT_NE(output.find("ok detect g@v1 "), std::string::npos);
  EXPECT_NE(output.find("ok versions g count=2"), std::string::npos);
  EXPECT_NE(output.find("v0 g nodes=5 edges=6 ops=0"), std::string::npos);
  EXPECT_NE(output.find("v1 g@v1 nodes=5 edges=6 ops=3"), std::string::npos);
}

TEST(ServeLoopTest, UpdateErrorsKeepTheLoopAlive) {
  const std::string path = WriteTempGraph(testing::ChainGraph(0.3, 0.6),
                                          "serve_v.graph", GraphFileFormat::kText);
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  dyn::UpdateManager updates(&catalog);
  std::istringstream in("addedge nope 0 1 0.5\n"
                        "load g " + path + "\n"
                        "commit g\n"          // nothing staged
                        "deledge g 2 0\n"     // no such edge
                        "addedge g 2 0 0.4\n"
                        "commit g\n"
                        "quit\n");
  std::ostringstream out;
  const ServeLoopStats stats = RunServeLoop(in, out, engine, &updates);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.updates, 2u);  // the accepted addedge and its commit
  EXPECT_NE(out.str().find("ok committed g@v1"), std::string::npos) << out.str();
}

TEST(ServeLoopTest, UpdateVerbsWithoutBackendAreErrors) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  std::istringstream in("addedge g 0 1 0.5\n"
                        "commit g\n"
                        "versions g\n"
                        "quit\n");
  std::ostringstream out;
  const ServeLoopStats stats = RunServeLoop(in, out, engine, nullptr);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_NE(out.str().find("err dynamic updates are not enabled"),
            std::string::npos);
  EXPECT_EQ(Lines(out.str()).back(), "ok bye");
}

TEST(ServeLoopTest, CommittedVersionIsQueryableAndCachedIndependently) {
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(25, 0.2, 3),
                                          "serve_w.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "detect g 3 BSRBK seed=5\n"
                                       "setprob g " +
                                       [&] {
                                         // Pick a real edge of the fixture.
                                         const UncertainGraph g =
                                             testing::RandomSmallGraph(25, 0.2, 3);
                                         const UncertainEdge e = g.edges()[0];
                                         return std::to_string(e.src) + " " +
                                                std::to_string(e.dst);
                                       }() +
                                       " 0.123\n"
                                       "commit g\n"
                                       "detect g 3 BSRBK seed=5\n"   // cache hit
                                       "detect g@v1 3 BSRBK seed=5\n"  // cold
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  std::vector<std::string> detect_headers;
  for (const std::string& line : lines) {
    if (line.rfind("ok detect ", 0) == 0) detect_headers.push_back(line);
  }
  ASSERT_EQ(detect_headers.size(), 3u) << output;
  EXPECT_NE(detect_headers[0].find("cached=0"), std::string::npos);
  EXPECT_NE(detect_headers[1].find("cached=1"), std::string::npos)
      << "base version untouched by the commit must keep hitting the cache";
  EXPECT_NE(detect_headers[2].find("cached=0"), std::string::npos)
      << "the new version must not inherit the base version's cache line";
}

TEST(ReadRequestLineTest, CapsAndResyncsAtNextNewline) {
  std::istringstream in("short\n" + std::string(40, 'x') + "\nnext\ntail");
  std::string line;
  EXPECT_EQ(ReadRequestLine(in, &line, 16), ReadLineResult::kLine);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(ReadRequestLine(in, &line, 16), ReadLineResult::kOversized);
  EXPECT_EQ(ReadRequestLine(in, &line, 16), ReadLineResult::kLine);
  EXPECT_EQ(line, "next") << "stream must resync at the newline";
  // Final unterminated line behaves like getline: returned, then EOF.
  EXPECT_EQ(ReadRequestLine(in, &line, 16), ReadLineResult::kLine);
  EXPECT_EQ(line, "tail");
  EXPECT_EQ(ReadRequestLine(in, &line, 16), ReadLineResult::kEof);
}

TEST(ReadRequestLineTest, OversizedFinalLineWithoutNewline) {
  std::istringstream in(std::string(64, 'y'));
  std::string line;
  EXPECT_EQ(ReadRequestLine(in, &line, 8), ReadLineResult::kOversized);
  EXPECT_EQ(ReadRequestLine(in, &line, 8), ReadLineResult::kEof);
}

TEST(ServeLoopTest, OversizedLineAnswersOneErrAndLoopContinues) {
  GraphCatalog catalog;
  QueryEngine engine(&catalog);
  // One hostile line longer than the cap, then a valid request: the loop
  // must answer exactly one err for the flood and keep serving.
  std::istringstream in(std::string(kMaxRequestLineBytes + 100, 'z') +
                        "\ncatalog\nquit\n");
  std::ostringstream out;
  const ServeLoopStats stats = RunServeLoop(in, out, engine);
  const std::vector<std::string> lines = Lines(out.str());
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 1u);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("err request line exceeds", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok catalog", 0), 0u);
  EXPECT_EQ(lines.back(), "ok bye");
}

TEST(ServeLoopTest, TruthAndEngineStats) {
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(20, 0.2, 9),
                                          "serve_e.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "truth g 3 300 7\n"
                                       "truth g 3 300 7\n"
                                       "stats\n"
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  std::vector<std::string> truth_headers;
  for (const std::string& line : lines) {
    if (line.rfind("ok truth ", 0) == 0) truth_headers.push_back(line);
  }
  ASSERT_EQ(truth_headers.size(), 2u);
  EXPECT_NE(truth_headers[0].find("cached=0"), std::string::npos);
  EXPECT_NE(truth_headers[1].find("cached=1"), std::string::npos);
  EXPECT_NE(output.find("cache_hits=1"), std::string::npos) << output;
  // The one-line session summary: loop counters + result cache counters.
  // 4 requests so far (load, truth, truth, stats — counted before output).
  EXPECT_NE(output.find("serve requests=4 errors=0 updates=0 hits=1 "
                        "misses=1 evictions=0"),
            std::string::npos)
      << output;
}

// Drops the `time=<seconds>` field from every response header, the one
// field that varies between otherwise identical runs.
std::string WithoutTimes(const std::string& output) {
  std::string out;
  for (const std::string& line : Lines(output)) {
    const std::size_t at = line.find(" time=");
    if (at == std::string::npos) {
      out += line;
    } else {
      const std::size_t end = line.find(' ', at + 1);
      out += line.substr(0, at);
      if (end != std::string::npos) out += line.substr(end);
    }
    out += "\n";
  }
  return out;
}

TEST(ServeLoopTest, SimdFlagPinsBlockKernelMethodsWithIdenticalBytes) {
  // Each tier runs in a fresh engine, so both answers are cold (the flag is
  // canonicalized out of the result-cache key).
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(30, 0.15, 5),
                                          "serve_simd.snap", GraphFileFormat::kBinary);
  const auto run = [&](const std::string& mode, std::string* stats) {
    std::string script = "load g " + path + "\n";
    for (const char* method : {"N", "SN", "SR", "BSR"}) {
      script += std::string("detect g 3 ") + method + " seed=7 simd=" + mode +
                "\n";
    }
    const std::string output = RunScript(script + "stats\nquit\n");
    const std::size_t at = output.find("ok stats");
    *stats = output.substr(at);
    return WithoutTimes(output.substr(0, at));
  };
  std::string scalar_stats, avx2_stats, avx512_stats;
  const std::string scalar = run("scalar", &scalar_stats);
  const std::string avx2 = run("avx2", &avx2_stats);
  const std::string avx512 = run("avx512", &avx512_stats);
  const std::vector<std::string> lines = Lines(scalar);
  EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                          [](const std::string& line) {
                            return line.rfind("ok detect g ", 0) == 0 &&
                                   line.find("cached=0") != std::string::npos;
                          }),
            4)
      << scalar;
  EXPECT_EQ(scalar, avx2);
  EXPECT_EQ(scalar, avx512);
  // The flag reaches the kernels: a scalar session batches no coin, and a
  // vector tier batches some.
  EXPECT_NE(scalar_stats.find("\nsimd_batched_coins=0\n"), std::string::npos)
      << scalar_stats;
  if (simd::Avx2Available()) {
    EXPECT_EQ(avx2_stats.find("\nsimd_batched_coins=0\n"), std::string::npos)
        << avx2_stats;
  }
  if (simd::Avx512Available()) {
    EXPECT_EQ(avx512_stats.find("\nsimd_batched_coins=0\n"),
              std::string::npos)
        << avx512_stats;
  }
}

TEST(ServeLoopTest, OutOfRangeSampleCountsAnswerErr) {
  // N needs >= 1 world; N and truth cap at 2^32 - 1 (uint32_t counts), and
  // so does Equation 3's size for every (eps, delta) method.
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(20, 0.2, 9),
                                          "serve_f.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "detect g 3 N samples=0\n"
                                       "detect g 3 N samples=4294967296\n"
                                       "truth g 3 4294967296\n"
                                       "detect g 3 N samples=64\n"
                                       "detect g 3 BSRBK eps=0.00001\n"
                                       "detect g 3 SN eps=0.000000001\n"
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_GE(lines.size(), 7u);
  EXPECT_EQ(lines[1].rfind("err ", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("samples"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("err ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("err ", 0), 0u) << lines[3];
  EXPECT_NE(lines[3].find("samples"), std::string::npos) << lines[3];
  EXPECT_EQ(lines[4].rfind("ok detect g ", 0), 0u) << lines[4];
  // The two eps requests answer after the N table, just before "ok bye".
  const std::string eps_err =
      "err Invalid argument: eps and delta need more than 4294967295 samples "
      "(Equation 3)";
  EXPECT_EQ(lines[lines.size() - 3], eps_err);
  EXPECT_EQ(lines[lines.size() - 2], eps_err);
  EXPECT_EQ(lines.back(), "ok bye");
}

TEST(ServeLoopTest, TruthRejectsKOutsideOneToNLikeDetect) {
  // truth checks k against the graph as detect does: k = 0 and k > n get
  // detect's error, not an empty table or all n rows under a header
  // claiming k.
  const std::string path = WriteTempGraph(testing::RandomSmallGraph(20, 0.2, 9),
                                          "serve_k.snap", GraphFileFormat::kBinary);
  const std::string output = RunScript("load g " + path +
                                       "\n"
                                       "truth g 0 100\n"
                                       "truth g 21 100\n"
                                       "detect g 0\n"
                                       "detect g 21\n"
                                       "truth g 20 100\n"
                                       "quit\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_GE(lines.size(), 6u) << output;
  EXPECT_EQ(lines[1], "err Invalid argument: k must be in [1, n], got 0");
  EXPECT_EQ(lines[2], "err Invalid argument: k must be in [1, n], got 21");
  EXPECT_EQ(lines[3], lines[1]);
  EXPECT_EQ(lines[4], lines[2]);
  // k = n is still a full answer: the header and all n rows.
  EXPECT_EQ(lines[5].rfind("ok truth g k=20 samples=100 ", 0), 0u) << lines[5];
  EXPECT_EQ(lines.size(), 5u + 1u + 20u + 1u + 1u) << output;
}

TEST(ServeLoopTest, GraphStatsAnswerWhileAColdDetectHoldsTheContext) {
  // A monitoring probe never waits out a cold detect: with the graph's
  // context lock held (as a running detect holds it), `stats g` answers at
  // once and reports the context as busy instead of its three figures.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("g", testing::RandomSmallGraph(30, 0.15, 5)).ok());
  QueryEngine engine(&catalog);
  const auto entry = catalog.Get("g");
  ASSERT_NE(entry, nullptr);
  std::unique_lock<std::mutex> hold(entry->context_mu);
  std::promise<std::string> answer;
  std::future<std::string> answered = answer.get_future();
  std::thread session([&] {
    std::istringstream in("stats g\nquit\n");
    std::ostringstream out;
    RunServeLoop(in, out, engine);
    answer.set_value(out.str());
  });
  const bool in_time = answered.wait_for(std::chrono::seconds(5)) ==
                       std::future_status::ready;
  hold.unlock();
  session.join();
  ASSERT_TRUE(in_time) << "stats g waited for the held context lock";
  const std::string busy = answered.get();
  EXPECT_EQ(busy.rfind("ok stats g\n", 0), 0u) << busy;
  EXPECT_NE(busy.find("\ncontext_busy=1\n.\n"), std::string::npos) << busy;
  EXPECT_EQ(busy.find("context_bytes="), std::string::npos) << busy;

  // Free again: the three context lines are back.
  std::istringstream in("stats g\nquit\n");
  std::ostringstream out;
  RunServeLoop(in, out, engine);
  EXPECT_NE(out.str().find("\ncontext_reuse_hits=0\ncontext_reuse_misses=0\n"
                           "context_bytes="),
            std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("context_busy"), std::string::npos) << out.str();
}

TEST(ServeLoopTest, DetectThreadsFlagAnswersUnknownFlag) {
  // Every served detect runs on the engine's one pool (`serve threads=N`);
  // a per-request threads= is an unknown flag like any other.
  const std::string output = RunScript("detect g 2 bsrbk threads=4\nquit\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_EQ(lines.size(), 2u) << output;
  EXPECT_EQ(lines[0], "err unknown detect flag 'threads'");
  EXPECT_EQ(lines[1], "ok bye");
}

}  // namespace
}  // namespace vulnds::serve
