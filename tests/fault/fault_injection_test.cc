// End-to-end IO-failure behavior through the serve surface: injected
// journal failures answer protocol `err` lines without tearing in-memory
// state, committed versions are never half-visible across a restart, and a
// fail-once sweep over every registered failpoint leaves the serve loop
// alive and consistent.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "graph/builder.h"
#include "store/memory_governor.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

using dyn::DeltaJournal;
using dyn::JournalReplayStats;
using dyn::UpdateManager;

using testing::TestTempPath;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

// A journaled serve stack: catalog + journal + updates + engine + session.
struct Stack {
  std::unique_ptr<GraphCatalog> catalog;
  std::unique_ptr<DeltaJournal> journal;
  std::unique_ptr<UpdateManager> updates;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ServeSession> session;

  // One protocol request; returns the (possibly multi-line) response.
  std::string Run(const std::string& line) {
    std::ostringstream out;
    session->HandleLine(line, out);
    return out.str();
  }
};

Stack OpenStack(const std::string& journal_path, bool replay) {
  Stack s;
  s.catalog = std::make_unique<GraphCatalog>();
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  s.journal = journal.MoveValue();
  s.updates =
      std::make_unique<UpdateManager>(s.catalog.get(), s.journal.get());
  if (replay) {
    Result<JournalReplayStats> replayed = s.updates->ReplayJournal();
    EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  }
  s.engine = std::make_unique<QueryEngine>(s.catalog.get());
  s.session =
      std::make_unique<ServeSession>(s.engine.get(), s.updates.get());
  return s;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// Journal fsync starts failing mid-traffic (after:2 — the first two commit
// barriers hold, then every barrier fails). Commits answer protocol `err`,
// in-memory state stays commit-consistent, and after the fault clears the
// SAME version commits successfully. Every version that ever answered
// "ok committed" survives a restart replay.
TEST_F(FaultInjectionTest, FsyncFailuresAnswerErrAndNeverTearCommits) {
  const std::string graph_path = TestTempPath("fault_fsync_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  const std::string journal_path = TestTempPath("fault_fsync.log");
  std::remove(journal_path.c_str());

  std::vector<std::string> committed;  // versioned names the client saw ok'd
  {
    Stack s = OpenStack(journal_path, /*replay=*/false);
    ASSERT_TRUE(s.catalog->Load("g", graph_path).ok());
    ASSERT_TRUE(fail::Arm(fail::points::kJournalSyncFsync, "after:2:eio").ok());

    // v1 and v2 commit under working fsync.
    for (int v = 1; v <= 2; ++v) {
      ASSERT_TRUE(StartsWith(s.Run("addedge g 4 0 0.5"), "ok addedge"));
      ASSERT_TRUE(StartsWith(s.Run("deledge g 4 0"), "ok deledge"));
      const std::string response = s.Run("commit g");
      ASSERT_TRUE(StartsWith(response, "ok committed g@v" + std::to_string(v)))
          << response;
      committed.push_back("g@v" + std::to_string(v));
    }

    // fsync now fails (and keeps failing through the bounded retries):
    // the commit answers err, the staged op is retained, and the version
    // is NOT visible — not in the catalog, not in the versions list.
    ASSERT_TRUE(StartsWith(s.Run("addedge g 4 0 0.5"), "ok addedge"));
    const std::string failed = s.Run("commit g");
    EXPECT_TRUE(StartsWith(failed, "err")) << failed;
    EXPECT_GE(fail::Hits(fail::points::kJournalSyncFsync), 3u);
    EXPECT_EQ(s.catalog->Get("g@v3"), nullptr);
    EXPECT_TRUE(StartsWith(s.Run("versions g"), "ok versions g count=3"));
    EXPECT_GE(s.updates->stats().journal_errors, 1u);

    // Detect on the latest committed version still serves.
    EXPECT_TRUE(StartsWith(s.Run("detect g@v2 2"), "ok detect g@v2"));

    // Fault clears: the retried commit materializes the same v3 with the
    // retained staged op.
    fail::DisarmAll();
    const std::string retried = s.Run("commit g");
    ASSERT_TRUE(StartsWith(retried, "ok committed g@v3")) << retried;
    committed.push_back("g@v3");
  }

  // Restart: every ok'd version is back, bit-exactly addressable by name.
  Stack s = OpenStack(journal_path, /*replay=*/true);
  for (const std::string& name : committed) {
    EXPECT_NE(s.catalog->Get(name), nullptr) << name << " lost by restart";
  }
  EXPECT_TRUE(StartsWith(s.Run("versions g"), "ok versions g count=4"));
}

// Journal append failures: the staged op is rolled back out of the overlay
// (err is the truth — the op neither serves nor survives), and the journal
// stays append-consistent even when the injected failure tears a record in
// half on disk.
TEST_F(FaultInjectionTest, AppendFailureRollsTheOpBack) {
  const std::string graph_path = TestTempPath("fault_append_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  // every:1 defeats the bounded internal retry (all 3 attempts fail); a
  // sparse fault like once: is absorbed by the retry and never reaches the
  // client. The short-write variant really tears a frame on disk each
  // attempt, exercising the append boundary rollback.
  for (const char* spec : {"every:1:eio", "every:1:short"}) {
    SCOPED_TRACE(spec);
    fail::DisarmAll();
    const std::string journal_path = TestTempPath(
        std::string("fault_append_") +
        (std::string(spec).find("short") != std::string::npos ? "short"
                                                              : "eio") +
        ".log");
    std::remove(journal_path.c_str());
    {
      Stack s = OpenStack(journal_path, /*replay=*/false);
      ASSERT_TRUE(s.catalog->Load("g", graph_path).ok());

      ASSERT_TRUE(fail::Arm(fail::points::kJournalAppendWrite, spec).ok());
      const std::string rejected = s.Run("addedge g 4 0 0.5");
      EXPECT_TRUE(StartsWith(rejected, "err")) << rejected;
      fail::DisarmAll();

      // The op was rolled back: nothing staged, commit refuses.
      EXPECT_EQ(s.updates->stats().journal_rollbacks, 1u);
      EXPECT_TRUE(StartsWith(s.Run("commit g"), "err"));

      // The journal accepts the retried op at the rolled-back boundary.
      ASSERT_TRUE(StartsWith(s.Run("addedge g 4 0 0.5"), "ok addedge"));
      ASSERT_TRUE(StartsWith(s.Run("commit g"), "ok committed g@v1"));
    }
    // Replay sees exactly one op and one commit — the torn/failed append
    // left no phantom record.
    Stack s = OpenStack(journal_path, /*replay=*/true);
    const auto v1 = s.catalog->Get("g@v1");
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->graph.num_edges(), 7u);
    EXPECT_TRUE(StartsWith(s.Run("versions g"), "ok versions g count=2"));
  }
}

// Found by chaos testing: a journal replay that runs under memory pressure
// (bases spill mid-replay) with spill page-ins failing must never leave the
// journal worse than it found it. Degraded replay may abandon a lineage for
// that run, but then compaction is refused and a later healthy replay still
// reconstructs everything — a transient spill fault can never eat committed
// versions.
TEST_F(FaultInjectionTest, ReplayUnderSpillFaultsNeverDamagesTheJournal) {
  // A ring big enough that two snapshots cannot both stay resident.
  UncertainGraphBuilder b(200);
  for (NodeId v = 0; v < 200; ++v) ASSERT_TRUE(b.SetSelfRisk(v, 0.3).ok());
  for (NodeId v = 0; v < 200; ++v) {
    ASSERT_TRUE(b.AddEdge(v, (v + 1) % 200, 0.5).ok());
  }
  const UncertainGraph ring = b.Build().MoveValue();
  const std::string graph_path = TestTempPath("fault_replay_ring.snap");
  ASSERT_TRUE(
      WriteGraphFile(ring, graph_path, GraphFileFormat::kBinary).ok());
  const std::string journal_path = TestTempPath("fault_replay_spill.log");
  std::remove(journal_path.c_str());

  {  // Build a 2-version lineage + staged tail with no faults, no spill.
    Stack s = OpenStack(journal_path, /*replay=*/false);
    ASSERT_TRUE(s.catalog->Load("g", graph_path).ok());
    ASSERT_TRUE(s.updates->AddEdge("g", 0, 100, 0.5).ok());
    ASSERT_TRUE(s.updates->Commit("g").ok());  // v1: 201 edges
    ASSERT_TRUE(s.updates->AddEdge("g", 0, 101, 0.5).ok());
    ASSERT_TRUE(s.updates->Commit("g").ok());  // v2: 202 edges
    ASSERT_TRUE(s.updates->AddEdge("g", 0, 102, 0.5).ok());  // staged tail
  }

  {  // Replay under a budget that fits one snapshot, all page-ins failing.
    store::MemoryGovernorOptions governor_options;
    governor_options.budget_bytes = serve::EstimateGraphBytes(ring) + 512;
    store::MemoryGovernor governor(governor_options);
    GraphCatalogOptions catalog_options;
    catalog_options.spill_dir = TestTempPath("fault_replay_spill_dir");
    catalog_options.governor = &governor;
    auto catalog = std::make_unique<GraphCatalog>(catalog_options);
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(catalog.get(), journal->get());

    ASSERT_TRUE(fail::Arm(fail::points::kSpillPageIn, "every:1:eio").ok());
    Result<JournalReplayStats> replayed = updates.ReplayJournal();
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    fail::DisarmAll();

    if (replayed->failed_names > 0) {
      // Degraded replay: the in-memory state is incomplete, so any journal
      // rewrite must be refused — it would drop the unreconstructed tail.
      EXPECT_FALSE(updates.CompactJournal().ok());
      EXPECT_EQ(updates.stats().journal_compactions, 0u);
      EXPECT_GE(updates.stats().compactions_refused, 1u);
    }
  }

  // A healthy restart recovers the full lineage: both committed versions
  // with their exact edge counts, the staged tail, no version collisions.
  Stack s = OpenStack(journal_path, /*replay=*/true);
  const auto v1 = s.catalog->GetOrLoad("g@v1");
  const auto v2 = s.catalog->GetOrLoad("g@v2");
  ASSERT_TRUE(v1.ok() && *v1 != nullptr);
  ASSERT_TRUE(v2.ok() && *v2 != nullptr);
  EXPECT_EQ((*v1)->graph.num_edges(), 201u);
  EXPECT_EQ((*v2)->graph.num_edges(), 202u);
  EXPECT_TRUE(StartsWith(s.Run("versions g"), "ok versions g count=3"));
  const std::string committed = s.Run("commit g");
  EXPECT_TRUE(StartsWith(committed, "ok committed g@v3")) << committed;
}

// Arm every registered failpoint fail-once simultaneously and drive a full
// serve script. The loop must never crash; each response is a well-formed
// ok/err line; after the faults burn off, a retried commit succeeds and a
// restart replay agrees with what the client was told.
TEST_F(FaultInjectionTest, AllSitesFailOnceSweepKeepsServing) {
  const std::string graph_path = TestTempPath("fault_sweep_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  const std::string journal_path = TestTempPath("fault_sweep.log");
  std::remove(journal_path.c_str());

  {
    Stack s = OpenStack(journal_path, /*replay=*/false);
    ASSERT_TRUE(s.catalog->Load("g", graph_path).ok());
    for (const std::string& point : fail::KnownPoints()) {
      ASSERT_TRUE(fail::Arm(point, "once:eio").ok()) << point;
    }

    const std::vector<std::string> script = {
        "detect g 2",         "addedge g 4 0 0.5", "commit g",
        "save g " + TestTempPath("fault_sweep_out.snap") + " binary",
        "versions g",           "stats g",           "detect g 2",
    };
    for (const std::string& line : script) {
      const std::string response = s.Run(line);
      ASSERT_FALSE(response.empty()) << line;
      EXPECT_TRUE(StartsWith(response, "ok") || StartsWith(response, "err"))
          << line << " -> " << response;
    }

    // Each armed point fires at most once; drive the script again so every
    // fault has burned off, then settle the lineage.
    for (const std::string& line : script) (void)s.Run(line);
    fail::DisarmAll();
    const std::string versions = s.Run("versions g");
    ASSERT_TRUE(StartsWith(versions, "ok versions g")) << versions;
    if (s.updates->stats().staged_ops > s.updates->stats().commits) {
      (void)s.Run("commit g");
    }
    EXPECT_TRUE(StartsWith(s.Run("detect g 2"), "ok detect g"));
  }

  // The journal replays cleanly whatever subset of operations survived.
  Stack s = OpenStack(journal_path, /*replay=*/true);
  EXPECT_TRUE(StartsWith(s.Run("detect g 2"), "ok detect g"));
  EXPECT_TRUE(StartsWith(s.Run("versions g"), "ok versions g"));
}

}  // namespace
}  // namespace vulnds::serve
