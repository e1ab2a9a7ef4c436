// Golden wire transcript: the serve protocol's bytes pinned against a file
// committed alongside this test, so a change to any double formatter (the
// 17-digit scores, probabilities, ratios, journal records, text snapshots
// and metric values) shows up as a diff here. The other transcript tests
// compare the code with itself (across threads, tiers and sessions) and
// cannot catch a format change.
//
// Everything rendered is deterministic: a constant clock pins every time=
// token, the graph is generated from a fixed seed, and the `stats` and
// `metrics` responses are cut down to keys that depend only on the request
// sequence (not on the kernel tier, thread count or memory accounting).
//
// When the transcript legitimately changes, the test writes what it got to
// wire_golden.actual under the test temp directory; review that diff before
// replacing tests/serve/testdata/wire_golden.txt with it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

#ifndef VULNDS_TESTS_DIR
#error "VULNDS_TESTS_DIR must point at the tests/ directory"
#endif

namespace vulnds::serve {
namespace {

constexpr char kGoldenPath[] = VULNDS_TESTS_DIR "/serve/testdata/wire_golden.txt";

obs::ClockMicros ZeroClock() {
  return [] { return int64_t{0}; };
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// `stats` (engine form) keys that count requests rather than describe the
// host: tier, coin split, waves and byte accounting are left out.
bool KeepEngineStatsLine(const std::string& line) {
  static const std::set<std::string> kKeys = {
      "detect_queries", "truth_queries", "cache_hits", "cache_misses",
      "cache_hit_rate", "catalog_size",  "catalog_evictions"};
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return true;  // header, terminator
  if (line.rfind("server ", 0) == 0 || line.rfind("serve ", 0) == 0) {
    return true;
  }
  return kKeys.count(line.substr(0, eq)) > 0;
}

// `stats <name>` drops only the context's byte estimate.
bool KeepGraphStatsLine(const std::string& line) {
  return line.rfind("context_bytes=", 0) != 0;
}

// `metrics` families whose every sample is a function of the request
// sequence under a constant clock, plus the golden_* families the test
// registers to put awkward doubles through the exposition formatter.
bool KeepMetricsLine(const std::string& line) {
  static const char* const kFamilies[] = {
      "golden_",
      "vulnds_cache_",
      "vulnds_catalog_hits_total",
      "vulnds_catalog_misses_total",
      "vulnds_catalog_loads_total",
      "vulnds_engine_request_micros",
      "vulnds_engine_requests_total",
      "vulnds_server_",
  };
  std::string name = line;
  if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    name = line.substr(7);
  }
  if (line == "ok metrics" || line == ".") return true;
  for (const char* family : kFamilies) {
    if (name.rfind(family, 0) == 0) return true;
  }
  return false;
}

// A journal file rendered one record per line as "<len> <crc> <payload>":
// the framing is fully determined by those three, so this is the file's
// bytes in readable form. Trailing bytes that do not frame are reported.
std::string RenderJournal(const std::string& bytes) {
  std::string out;
  std::size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
      crc |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + 4 + i]))
             << (8 * i);
    }
    if (bytes.size() - pos - 8 < len) break;
    char head[32];
    std::snprintf(head, sizeof(head), "%u %08x ", len, crc);
    out += head + bytes.substr(pos + 8, len) + "\n";
    pos += 8 + len;
  }
  if (pos != bytes.size()) {
    out += "trailing " + std::to_string(bytes.size() - pos) + " bytes\n";
  }
  return out;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (std::size_t pos = 0; (pos = text.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

// Low self-risks and moderate arc probabilities, so the detect and truth
// scores spread below 1 and print all 17 digits.
UncertainGraph GoldenGraph() {
  Rng rng(2026);
  constexpr std::size_t kNodes = 40;
  UncertainGraphBuilder b(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    testing::CheckOk(b.SetSelfRisk(v, 0.2 * rng.NextDouble()));
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) {
      if (u != v && rng.NextDouble() < 0.08) {
        testing::CheckOk(b.AddEdge(u, v, 0.6 * rng.NextDouble()));
      }
    }
  }
  return b.Build().MoveValue();
}

std::string BuildTranscript() {
  const std::string dir = testing::TestTempPath("wire_golden");
  const std::string journal_path = dir + ".journal";
  const std::string base_path = dir + "_base.graph";
  const std::string v1_path = dir + "_v1.graph";
  std::remove(journal_path.c_str());  // a fresh journal on every run

  const UncertainGraph graph = GoldenGraph();
  // An existing edge to reweight and delete, and an absent pair to add.
  const UncertainEdge reweighted = graph.edges()[0];
  const UncertainEdge deleted = graph.edges()[1];
  std::set<std::pair<NodeId, NodeId>> present;
  for (const UncertainEdge& e : graph.edges()) present.insert({e.src, e.dst});
  std::pair<NodeId, NodeId> added{0, 0};
  for (NodeId u = 0; u < graph.num_nodes() && added.first == added.second;
       ++u) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (u != v && present.count({u, v}) == 0) {
        added = {u, v};
        break;
      }
    }
  }

  GraphCatalog catalog;
  EXPECT_TRUE(catalog.Put("g", graph).ok());
  QueryEngineOptions options;
  options.clock = ZeroClock();
  QueryEngine engine(&catalog, options);
  Result<std::unique_ptr<dyn::DeltaJournal>> journal =
      dyn::DeltaJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  dyn::UpdateManager updates(&catalog, journal->get(), ZeroClock());
  ServerStats server(*engine.registry());
  ServeSession session(&engine, &updates, &server);

  // Awkward doubles through the exposition formatter: a gauge per value and
  // a histogram with fractional bounds and a fractional sum.
  obs::MetricRegistry* registry = engine.registry();
  const std::pair<const char*, double> gauges[] = {
      {"tenth", 0.1},
      {"third", 1.0 / 3.0},
      {"big", 1e300},
      {"tiny", 4.9406564584124654e-324},
      {"neg", -2.5e-7},
      {"e15", 1e15},
      {"e15m1", 999999999999999.0},
      {"negzero", -0.0},
      {"inf", std::numeric_limits<double>::infinity()},
      {"ninf", -std::numeric_limits<double>::infinity()},
      {"nan", std::numeric_limits<double>::quiet_NaN()},
  };
  for (const auto& [label, value] : gauges) {
    registry->GetGauge("golden_value", "Awkward doubles", {{"v", label}})
        ->Set(value);
  }
  obs::Histogram* histogram = registry->GetHistogram(
      "golden_histogram", "Fractional bounds", {0.05, 0.5, 2.5, 1e-3});
  for (const double v : {0.01, 0.3, 0.3, 2.0, 7.125}) histogram->Observe(v);

  const std::string e0 = std::to_string(reweighted.src) + " " +
                         std::to_string(reweighted.dst);
  const std::string e1 =
      std::to_string(deleted.src) + " " + std::to_string(deleted.dst);
  const std::string e2 =
      std::to_string(added.first) + " " + std::to_string(added.second);
  const std::vector<std::string> script = {
      "detect g 4 N samples=2000 seed=3",
      "detect g 4 SN seed=3",
      "detect g 4 SR seed=3",
      "detect g 4 BSR seed=3",
      "detect g 4 BSRBK seed=3",
      "detect g 4 BSRBK seed=3",
      "detect g 6 SN eps=0.15 delta=0.05 seed=9",
      "truth g 5 3000 11",
      "truth g 5 3000 11",
      "stats g",
      "setprob g " + e0 + " 0.1",
      "addedge g " + e2 + " 0.33333333333333331",
      "deledge g " + e1,
      "setprob g " + e0 + " 7e-5",
      "commit g",
      "detect g@v1 3 BSR seed=5",
      "stats g@v1",
      "versions g",
      "save g " + base_path + " text",
      "save g@v1 " + v1_path + " text",
      "stats",
      "metrics",
  };

  std::string transcript;
  for (const std::string& line : script) {
    std::ostringstream out;
    session.HandleLine(line, out);
    std::string response;
    const bool engine_stats = line == "stats";
    const bool graph_stats = line.rfind("stats ", 0) == 0;
    const bool metrics = line == "metrics";
    for (const std::string& l : Lines(out.str())) {
      if (engine_stats && !KeepEngineStatsLine(l)) continue;
      if (graph_stats && !KeepGraphStatsLine(l)) continue;
      if (metrics && !KeepMetricsLine(l)) continue;
      response += l + "\n";
    }
    transcript += "> " + line + "\n" + response;
  }
  transcript += "== journal\n" + RenderJournal(ReadFile(journal_path));
  transcript += "== base.graph\n" + ReadFile(base_path);
  transcript += "== v1.graph\n" + ReadFile(v1_path);
  return ReplaceAll(transcript, dir, "$TMP/wire_golden");
}

TEST(WireGoldenTest, TranscriptMatchesCommittedBytes) {
  const std::string actual = BuildTranscript();
  const std::string expected = ReadFile(kGoldenPath);
  if (actual != expected) {
    const std::string dump = testing::TestKeptPath("wire_golden.actual");
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << "transcript differs from " << kGoldenPath
                  << "; got bytes written to " << dump;
    const std::vector<std::string> want = Lines(expected);
    const std::vector<std::string> got = Lines(actual);
    for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
      const std::string w = i < want.size() ? want[i] : "<missing>";
      const std::string g = i < got.size() ? got[i] : "<missing>";
      if (w != g) {
        ADD_FAILURE() << "first differing line " << (i + 1) << ":\n  want: "
                      << w << "\n  got:  " << g;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace vulnds::serve
