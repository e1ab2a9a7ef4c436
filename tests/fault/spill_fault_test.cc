// Spill-directory crash consistency: startup GC of spill files whose
// owning pid is dead, protection of live processes' files by the pid in
// their names, CRC detection of corrupted spill pages, and the degraded
// reload-from-source fallback when a spill copy cannot be trusted.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "store/memory_governor.h"
#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

using testing::TestTempDir;
using testing::TestTempPath;
using testing::WriteTempGraph;

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The one spill file of `name` in `dir` ("" when there is none); this
// process' spill files are named "<pid>.<name>.<uid>.<serial>.vg2".
std::string SpillFileOf(const std::string& dir, const std::string& name) {
  const std::string prefix = std::to_string(::getpid()) + "." + name + ".";
  std::string found;
  for (const std::string& fname : ListDir(dir)) {
    if (fname.rfind(prefix, 0) == 0) found = dir + "/" + fname;
  }
  return found;
}

// Flips one byte in the middle of `path`'s payload, past the 28-byte v2
// header: the page still opens and sizes up, and fails only its CRC.
void CorruptPayload(const std::string& path) {
  std::string blob = ReadFile(path);
  ASSERT_GT(blob.size(), 64u) << path;
  blob[blob.size() / 2] ^= 0x41;
  std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  out.seekp(0);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good()) << path;
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  ASSERT_TRUE(out.good()) << path;
}

// Flips every 64th byte of `path`, header included.
void FlipEvery64thByte(const std::string& path) {
  std::string blob = ReadFile(path);
  ASSERT_FALSE(blob.empty()) << path;
  for (std::size_t i = 0; i < blob.size(); i += 64) blob[i] ^= 0x41;
  WriteFile(path, blob);
}

// Builds a catalog whose governor budget fits one graph, loads g1 then g2
// so g1 spills. Returns the catalog; out params expose the pieces.
struct SpillRig {
  std::unique_ptr<store::MemoryGovernor> governor;
  std::unique_ptr<GraphCatalog> catalog;
  std::string source_path;  // g1's on-disk source
  uint64_t g1_uid = 0;      // g1's uid before it spilled
};

SpillRig SpillOne(const std::string& spill_dir, const std::string& tag) {
  SpillRig rig;
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 311);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 322);
  rig.source_path = WriteTempGraph(g1, tag + "_src1.snap");
  const std::string p2 = WriteTempGraph(g2, tag + "_src2.snap");

  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) + 512;
  rig.governor = std::make_unique<store::MemoryGovernor>(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = spill_dir;
  options.governor = rig.governor.get();
  rig.catalog = std::make_unique<GraphCatalog>(options);
  EXPECT_TRUE(rig.catalog->Load("g1", rig.source_path).ok());
  if (const auto entry = rig.catalog->Get("g1")) rig.g1_uid = entry->uid;
  EXPECT_TRUE(rig.catalog->Load("g2", p2).ok());
  EXPECT_EQ(rig.catalog->spilled_count(), 1u);
  return rig;
}

class SpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

// Spill files orphaned by kill -9 used to persist until the same
// sanitized-name+uid path happened to be reused. Startup GC reclaims every
// *.vg2 file whose leading pid is dead or does not parse — torn
// atomic-write temps included — and counts what it deleted.
TEST_F(SpillFaultTest, StartupGcReclaimsOrphansAndDeadPids) {
  const std::string dir = TestTempDir("spill");
  // A pid that cannot be alive (pid_max is far below it).
  WriteFile(dir + "/999999999.ghost.17.0.vg2", "stale spill payload");
  WriteFile(dir + "/999999999.ghost.18.1.vg2.tmp.999999999.0",
            "torn temp payload");
  // No leading pid: no owner to protect it.
  WriteFile(dir + "/ghost.19.2.vg2", "unowned spill payload");

  GraphCatalogOptions options;
  options.spill_dir = dir;
  GraphCatalog catalog(options);

  EXPECT_EQ(catalog.spill_orphans_reclaimed(), 3u);
  const std::vector<std::string> left = ListDir(dir);
  EXPECT_TRUE(left.empty()) << left.size() << " files left";
  EXPECT_NE(catalog.registry()->RenderPrometheus().find(
                "vulnds_store_spill_orphans_reclaimed_total 3\n"),
            std::string::npos);
}

TEST_F(SpillFaultTest, LivePidsProtectTheirFiles) {
  const std::string dir = TestTempDir("spill");
  // pid 1 is always alive (kill(1, 0) answers EPERM for non-root), and so
  // are we; 999999999 is not.
  const std::string pid1 = dir + "/1.kept.5.0.vg2";
  const std::string mine =
      dir + "/" + std::to_string(::getpid()) + ".mine.6.0.vg2";
  const std::string orphan = dir + "/999999999.orphan.7.0.vg2";
  WriteFile(pid1, "live spill payload");
  WriteFile(mine, "own spill payload");
  WriteFile(orphan, "dead spill payload");

  GraphCatalogOptions options;
  options.spill_dir = dir;
  GraphCatalog catalog(options);

  EXPECT_EQ(catalog.spill_orphans_reclaimed(), 1u);
  EXPECT_TRUE(std::ifstream(pid1).good()) << "pid 1's spill file reclaimed";
  EXPECT_TRUE(std::ifstream(mine).good()) << "our own spill file reclaimed";
  EXPECT_FALSE(std::ifstream(orphan).good()) << "orphan survived the GC";
}

// Clean shutdown leaves no debris at all: every spill file goes with the
// catalog.
TEST_F(SpillFaultTest, DestructorLeavesTheSpillDirEmpty) {
  const std::string dir = TestTempDir("spill");
  {
    SpillRig rig = SpillOne(dir, "gc_c");
    EXPECT_FALSE(ListDir(dir).empty());  // the spill file exists
  }
  EXPECT_TRUE(ListDir(dir).empty());
}

// While spilled, the file carries this process' pid, so a concurrently
// constructed catalog over the same directory must not reclaim it.
TEST_F(SpillFaultTest, OwnLiveSpillSurvivesAnotherCatalogsGc) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "gc_d");

  GraphCatalogOptions options;
  options.spill_dir = dir;
  GraphCatalog other(options);
  EXPECT_EQ(other.spill_orphans_reclaimed(), 0u);

  // The spilled graph still pages back fine.
  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
}

// Bit-flip every 64th byte of the spill file: the CRC check must catch the
// corruption and the catalog must fall back to reloading the source under a
// fresh uid — a corrupted page is never deserialized into a served graph.
TEST_F(SpillFaultTest, CorruptedSpillPageFallsBackToSource) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "crc_a");

  const std::string spill_file = SpillFileOf(dir, "g1");
  ASSERT_FALSE(spill_file.empty());
  FlipEvery64thByte(spill_file);

  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);

  // The fallback reloaded the original source: content matches the source
  // snapshot bit-exactly.
  const std::string out = TestTempPath("crc_a_roundtrip.snap");
  ASSERT_TRUE(
      WriteGraphFile((*paged)->graph, out, GraphFileFormat::kBinary).ok());
  std::ifstream a(out, std::ios::binary), b(rig.source_path, std::ios::binary);
  std::ostringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());

  // The reload reconstructed the exact snapshot that spilled (the source
  // never changed), so the original uid survives: result caches stay valid
  // and update lineages rooted here do not see a spurious base reload.
  EXPECT_EQ((*paged)->uid, rig.g1_uid);
}

// Same corruption, but the SOURCE was also replaced with different content
// since the spill. The fallback still serves (the newest source truth), but
// under a fresh uid: results cached against the lost snapshot must become
// unreachable rather than answer for different content.
TEST_F(SpillFaultTest, ChangedSourceAfterSpillGetsAFreshUid) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "crc_c");

  const std::string spill_file = SpillFileOf(dir, "g1");
  ASSERT_FALSE(spill_file.empty());
  FlipEvery64thByte(spill_file);
  // Replace the source with a different graph (same path).
  const UncertainGraph replacement = testing::RandomSmallGraph(60, 0.2, 999);
  ASSERT_TRUE(WriteGraphFile(replacement, rig.source_path,
                             GraphFileFormat::kBinary)
                  .ok());

  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
  EXPECT_NE((*paged)->uid, rig.g1_uid);
  EXPECT_EQ((*paged)->graph.num_edges(), replacement.num_edges());
}

// Same corruption, but the source snapshot is gone too: the page-in fails
// with a "graph unavailable" error — it must NOT serve a wrong graph — and
// every other name keeps serving.
TEST_F(SpillFaultTest, CorruptedSpillWithoutSourceIsUnavailableNotWrong) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "crc_b");

  const std::string spill_file = SpillFileOf(dir, "g1");
  ASSERT_FALSE(spill_file.empty());
  FlipEvery64thByte(spill_file);
  std::remove(rig.source_path.c_str());  // no fallback source either

  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  EXPECT_FALSE(paged.ok());
  EXPECT_NE(paged.status().message().find("unavailable"), std::string::npos)
      << paged.status().ToString();

  // The healthy resident graph is untouched by the neighbor's corruption.
  EXPECT_NE(rig.catalog->Get("g2"), nullptr);
}

// Injected EIO on every page-in read attempt exhausts the bounded retries,
// then the source fallback answers.
TEST_F(SpillFaultTest, PageInEioFallsBackToSourceAfterRetries) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "eio_a");

  ASSERT_TRUE(fail::Arm(fail::points::kSpillPageIn, "every:1:eio").ok());
  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
  EXPECT_GE(fail::Hits(fail::points::kSpillPageIn), 3u);  // retries exhausted
  EXPECT_EQ((*paged)->uid, rig.g1_uid);  // unchanged source: same snapshot
}

// A transient page-in failure (fail-once) is absorbed by the retry loop and
// the ORIGINAL spilled bytes come back — uid preserved, no fallback.
TEST_F(SpillFaultTest, TransientPageInFailureIsRetried) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "eio_b");

  ASSERT_TRUE(fail::Arm(fail::points::kSpillPageIn, "once:eio").ok());
  Result<std::shared_ptr<CatalogEntry>> paged = rig.catalog->GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
  EXPECT_EQ(fail::Hits(fail::points::kSpillPageIn), 1u);
}

// Spill-write failures must never lose the snapshot: with the write path
// failing, the shed frees nothing, the graph stays resident, and once the
// fault clears a later shed succeeds.
TEST_F(SpillFaultTest, FailedSpillWriteKeepsSnapshotResident) {
  const std::string dir = TestTempDir("spill");
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 411);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 422);
  const std::string p1 = WriteTempGraph(g1, "wfail_src1.snap");
  const std::string p2 = WriteTempGraph(g2, "wfail_src2.snap");

  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) + 512;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = dir;
  options.governor = &governor;
  GraphCatalog catalog(options);
  ASSERT_TRUE(catalog.Load("g1", p1).ok());

  // All spill writes fail (every attempt of the bounded retry).
  ASSERT_TRUE(fail::Arm(fail::points::kSpillWrite, "every:1:enospc").ok());
  ASSERT_TRUE(catalog.Load("g2", p2).ok());
  EXPECT_EQ(catalog.spilled_count(), 0u);
  EXPECT_NE(catalog.Get("g1"), nullptr) << "snapshot dropped on failed spill";
  EXPECT_NE(catalog.Get("g2"), nullptr);
  EXPECT_GE(fail::Hits(fail::points::kSpillWrite), 3u);

  // Fault clears: the next pressure wave parks the cold snapshot normally.
  fail::DisarmAll();
  governor.MaybeShed();
  EXPECT_EQ(catalog.spilled_count(), 1u);
}

// A spill-write retry on a catalog no engine has been built over yet is
// counted in the catalog's registry, so the first engine's `metrics` scrape
// reports it.
TEST_F(SpillFaultTest, SpillWriteRetryBeforeAnyEngineShowsInItsScrape) {
  const std::string dir = TestTempDir("spill");
  ASSERT_TRUE(fail::Arm(fail::points::kSpillWrite, "once:enospc").ok());
  SpillRig rig = SpillOne(dir, "retry");
  EXPECT_EQ(fail::Hits(fail::points::kSpillWrite), 1u);

  QueryEngine engine(rig.catalog.get());
  ServeSession session(&engine);
  std::ostringstream out;
  session.HandleLine("metrics", out);
  EXPECT_NE(out.str().find("vulnds_store_io_errors_total{site=\"spill_write\","
                           "outcome=\"retried\"} 1\n"),
            std::string::npos)
      << out.str();
}

// A clean page corrupted while its snapshot is resident: the re-spill
// writes nothing (the corruption stays on disk), and the next page-in
// catches it by CRC and serves the reloadable source under the same uid
// through the degraded path.
TEST_F(SpillFaultTest, CorruptedKeptPageFallsBackToSourceUnderSameUid) {
  const std::string dir = TestTempDir("spill");
  SpillRig rig = SpillOne(dir, "kept_a");
  GraphCatalog& catalog = *rig.catalog;
  ASSERT_TRUE(catalog.GetOrLoad("g1").ok());  // g1 resident, page kept
  const std::string kept = SpillFileOf(dir, "g1");
  ASSERT_FALSE(kept.empty());
  CorruptPayload(kept);

  const std::size_t writes = catalog.stats().spill_writes;
  ASSERT_TRUE(catalog.GetOrLoad("g2").ok());  // clean re-spill of g1
  EXPECT_EQ(catalog.stats().spill_writes, writes);
  EXPECT_EQ(catalog.Get("g1"), nullptr);

  Result<std::shared_ptr<CatalogEntry>> paged = catalog.GetOrLoad("g1");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(*paged, nullptr);
  EXPECT_EQ((*paged)->uid, rig.g1_uid);
  const std::string out = TestTempPath("kept_a_roundtrip.snap");
  ASSERT_TRUE(
      WriteGraphFile((*paged)->graph, out, GraphFileFormat::kBinary).ok());
  EXPECT_EQ(ReadFile(out), ReadFile(rig.source_path));
  // The broken page went with its record; the next spill writes afresh.
  EXPECT_TRUE(SpillFileOf(dir, "g1").empty());
}

// A <memory> snapshot has no source to fall back to, so it never keeps a
// page: after every page-in its file is gone, and every spill writes a new
// one. It keeps answering through the whole cycle.
TEST_F(SpillFaultTest, MemoryEntryNeverReusesASpillFile) {
  const std::string dir = TestTempDir("spill");
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 611);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 622);
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) + 512;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = dir;
  options.governor = &governor;
  GraphCatalog catalog(options);
  ASSERT_TRUE(catalog.Put("g1", g1).ok());
  ASSERT_TRUE(catalog.Put("g2", g2).ok());  // g1 spills
  const std::string want = TestTempPath("kept_b_want.snap");
  ASSERT_TRUE(WriteGraphFile(g1, want, GraphFileFormat::kBinary).ok());

  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE(cycle);
    const std::size_t writes = catalog.stats().spill_writes;
    Result<std::shared_ptr<CatalogEntry>> paged = catalog.GetOrLoad("g1");
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_NE(*paged, nullptr);
    EXPECT_TRUE(SpillFileOf(dir, "g1").empty()) << "page kept";
    const std::string out = TestTempPath("kept_b_roundtrip.snap");
    ASSERT_TRUE(
        WriteGraphFile((*paged)->graph, out, GraphFileFormat::kBinary).ok());
    EXPECT_EQ(ReadFile(out), ReadFile(want));
    ASSERT_TRUE(catalog.GetOrLoad("g2").ok());  // re-spills g1: a write
    EXPECT_FALSE(SpillFileOf(dir, "g1").empty());
    EXPECT_EQ(catalog.stats().spill_writes, writes + 2);  // g2 in, g1 out
  }
}

// Reserve first: a page-in charges its snapshot's bytes once the page's
// header checks out, BEFORE the columns are read, so the victim is already
// spilled when a corrupt body fails the read — and the reservation is
// released with the failure, leaving nothing charged for a graph that
// never arrived.
TEST_F(SpillFaultTest, FailedPageInHasShedTheVictimAndReleasedItsCharge) {
  const std::string dir = TestTempDir("spill");
  const UncertainGraph g1 = testing::RandomSmallGraph(60, 0.2, 711);
  const UncertainGraph g2 = testing::RandomSmallGraph(60, 0.2, 722);
  store::MemoryGovernorOptions governor_options;
  governor_options.budget_bytes =
      std::max(EstimateGraphBytes(g1), EstimateGraphBytes(g2)) + 512;
  store::MemoryGovernor governor(governor_options);
  GraphCatalogOptions options;
  options.spill_dir = dir;
  options.governor = &governor;
  GraphCatalog catalog(options);
  ASSERT_TRUE(catalog.Put("g1", g1).ok());
  ASSERT_TRUE(catalog.Put("g2", g2).ok());  // g1 spills
  const std::string page = SpillFileOf(dir, "g1");
  ASSERT_FALSE(page.empty());
  CorruptPayload(page);

  Result<std::shared_ptr<CatalogEntry>> paged = catalog.GetOrLoad("g1");
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(catalog.Get("g2"), nullptr) << "victim not shed before the read";
  EXPECT_TRUE(catalog.Contains("g2"));
  EXPECT_EQ(governor.charged(store::ChargeClass::kSnapshot), 0u);
  EXPECT_EQ(governor.total_charged(), 0u);

  // The victim was parked, not lost.
  Result<std::shared_ptr<CatalogEntry>> back = catalog.GetOrLoad("g2");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_NE(*back, nullptr);
  EXPECT_EQ(governor.charged(store::ChargeClass::kSnapshot),
            EstimateGraphBytes(g2));
}

}  // namespace
}  // namespace vulnds::serve
