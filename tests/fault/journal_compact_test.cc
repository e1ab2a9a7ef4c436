// Journal compaction: the rewrite preserves every committed version and the
// staged tail, bounds the journal under a threshold, and is crash-safe at
// every injected failure step (write, fsync, rename).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::dyn {
namespace {

using testing::TestTempDir;
using testing::TestTempPath;

class JournalCompactTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

struct Server {
  std::unique_ptr<serve::GraphCatalog> catalog;
  std::unique_ptr<DeltaJournal> journal;
  std::unique_ptr<UpdateManager> updates;
  JournalReplayStats replay;
};

// Opens `journal_path` and replays it into a fresh catalog — the serve
// startup path.
Server Recover(const std::string& journal_path) {
  Server s;
  s.catalog = std::make_unique<serve::GraphCatalog>();
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  s.journal = journal.MoveValue();
  s.updates =
      std::make_unique<UpdateManager>(s.catalog.get(), s.journal.get());
  Result<JournalReplayStats> replayed = s.updates->ReplayJournal();
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  s.replay = *replayed;
  return s;
}

// Asserts that replaying `journal_path` reproduces versions v1..vN of "g"
// with the given edge counts, and that the staged tail holds `staged` ops.
void ExpectRecoveredState(const std::string& journal_path,
                          const std::vector<std::size_t>& version_edges,
                          std::size_t staged) {
  Server s = Recover(journal_path);
  Result<std::vector<serve::VersionInfo>> versions = s.updates->Versions("g");
  ASSERT_TRUE(versions.ok()) << versions.status().ToString();
  ASSERT_EQ(versions->size(), version_edges.size() + 1);  // +1 for the base
  for (std::size_t i = 0; i < version_edges.size(); ++i) {
    const serve::VersionInfo& v = (*versions)[i + 1];
    EXPECT_EQ(v.version, i + 1);
    const auto entry = s.catalog->Get(v.catalog_name);
    ASSERT_NE(entry, nullptr) << v.catalog_name;
    EXPECT_EQ(entry->graph.num_edges(), version_edges[i]) << v.catalog_name;
  }
  if (staged > 0) {
    Result<serve::CommitInfo> commit = s.updates->Commit("g");
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    EXPECT_EQ(commit->ops, staged);
  } else {
    // Nothing staged: commit refuses with InvalidArgument.
    EXPECT_EQ(s.updates->Commit("g").status().code(),
              StatusCode::kInvalidArgument);
  }
}

// Builds a journal with two committed versions (7 then 6 edges over the
// 6-edge paper graph) and one staged op; returns the journal path.
std::string BuildLineage(const std::string& tag, UpdateManager** out_updates,
                         Server* keep) {
  const std::string graph_path = TestTempPath("compact_" + tag + "_base.snap");
  EXPECT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  const std::string journal_path = TestTempPath("compact_" + tag + ".log");
  std::remove(journal_path.c_str());

  keep->catalog = std::make_unique<serve::GraphCatalog>();
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok());
  keep->journal = journal.MoveValue();
  keep->updates = std::make_unique<UpdateManager>(keep->catalog.get(),
                                                  keep->journal.get());
  EXPECT_TRUE(keep->catalog->Load("g", graph_path).ok());
  EXPECT_TRUE(keep->updates->AddEdge("g", 4, 0, 0.5).ok());
  EXPECT_TRUE(keep->updates->Commit("g").ok());        // v1: 7 edges
  EXPECT_TRUE(keep->updates->DeleteEdge("g", 4, 0).ok());
  EXPECT_TRUE(keep->updates->Commit("g").ok());        // v2: 6 edges
  EXPECT_TRUE(keep->updates->AddEdge("g", 0, 4, 0.25).ok());  // staged tail
  *out_updates = keep->updates.get();
  return journal_path;
}

TEST_F(JournalCompactTest, CompactionPreservesVersionsAndStagedTail) {
  Server server;
  UpdateManager* updates = nullptr;
  const std::string journal_path = BuildLineage("basic", &updates, &server);

  const std::size_t bytes_before = server.journal->bytes();
  ASSERT_TRUE(updates->CompactJournal().ok());
  EXPECT_EQ(updates->stats().journal_compactions, 1u);
  // The rewrite replaces per-op records with one open + two version records
  // + the single staged op — strictly fewer records than before.
  EXPECT_LT(server.journal->records(), 7u);
  EXPECT_GT(server.journal->bytes(), 0u);
  (void)bytes_before;

  // The compacted journal replays into exactly the pre-compaction state.
  server = Server{};  // close journal fd before reopening the path
  ExpectRecoveredState(journal_path, {7, 6}, 1);
}

TEST_F(JournalCompactTest, ThresholdTriggersCompactionAndBoundsTheJournal) {
  const std::string graph_path = TestTempPath("compact_bound_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  // A long directory: version records name their side files relative to
  // the journal, so the bound below must not depend on this length.
  const std::string journal_path =
      TestTempDir("compact_bound_" + std::string(64, 'd')) +
      "/compact_bound.log";
  ASSERT_GE(journal_path.size(), 96u);

  constexpr std::size_t kThreshold = 2048;
  std::size_t max_bytes = 0;
  {
    serve::GraphCatalog catalog;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(&catalog, journal->get());
    updates.SetJournalCompactThreshold(kThreshold);
    ASSERT_TRUE(catalog.Load("g", graph_path).ok());

    // Many commit cycles; without compaction the journal would grow without
    // bound (every op + commit is a record). The threshold caps it: after
    // each commit the journal is at most threshold + one commit's records.
    for (int cycle = 0; cycle < 40; ++cycle) {
      ASSERT_TRUE(updates.AddEdge("g", 4, 0, 0.5).ok());
      ASSERT_TRUE(updates.DeleteEdge("g", 4, 0).ok());
      ASSERT_TRUE(updates.Commit("g").ok());
      max_bytes = std::max(max_bytes, (*journal)->bytes());
    }
    EXPECT_GE(updates.stats().journal_compactions, 1u);
  }
  // The bound: compaction keeps one version record (~a file name +
  // counters) per version. 40 versions of a 6-edge graph compact to well
  // under 8 KiB; without compaction 120 op/commit records would blow far
  // past it.
  EXPECT_LE(max_bytes, kThreshold + 2048) << "journal not bounded";

  // And the compacted journal still replays every version.
  Server s = Recover(journal_path);
  Result<std::vector<serve::VersionInfo>> versions = s.updates->Versions("g");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 41u);  // base + v1..v40
  EXPECT_NE(s.catalog->Get("g@v40"), nullptr);
}

// Crash-safety sweep: inject a fail-once at each compaction step. The
// compaction fails, but the journal must remain complete — a recovery run
// still reproduces every version and the staged tail.
TEST_F(JournalCompactTest, FailedCompactionLeavesJournalIntact) {
  for (const char* point :
       {fail::points::kJournalCompactWrite, fail::points::kJournalCompactFsync,
        fail::points::kJournalCompactRename}) {
    SCOPED_TRACE(point);
    fail::DisarmAll();
    Server server;
    UpdateManager* updates = nullptr;
    const std::string journal_path =
        BuildLineage(std::string("fail_") + point, &updates, &server);

    ASSERT_TRUE(fail::Arm(point, "once:eio").ok());
    const Status compacted = updates->CompactJournal();
    EXPECT_FALSE(compacted.ok()) << point;
    EXPECT_EQ(fail::Hits(point), 1u);
    EXPECT_EQ(updates->stats().journal_compactions, 0u);

    // The old journal is untouched: full recovery still works.
    server = Server{};
    ExpectRecoveredState(journal_path, {7, 6}, 1);
  }
}

// Short write at the compaction temp: a torn prefix really lands in the temp
// file, the live journal must stay whole and the temp must not be adopted.
TEST_F(JournalCompactTest, ShortWriteDuringCompactionIsHarmless) {
  Server server;
  UpdateManager* updates = nullptr;
  const std::string journal_path = BuildLineage("short", &updates, &server);

  ASSERT_TRUE(
      fail::Arm(fail::points::kJournalCompactWrite, "once:short").ok());
  EXPECT_FALSE(updates->CompactJournal().ok());

  // The journal still appends and replays; a later compaction succeeds.
  ASSERT_TRUE(updates->Commit("g").ok());  // commits the staged tail as v3
  ASSERT_TRUE(updates->CompactJournal().ok());
  server = Server{};
  ExpectRecoveredState(journal_path, {7, 6, 7}, 0);
}

// Found by chaos testing: if startup replay cannot read a version side file
// (transient EIO), the in-memory state is missing versions the journal
// still holds. A compaction from that state used to rewrite the journal
// without them — and GC their side files — turning the transient fault into
// permanent loss. Compaction must refuse until a clean replay.
TEST_F(JournalCompactTest, IncompleteReplayBlocksCompaction) {
  Server server;
  UpdateManager* updates = nullptr;
  const std::string journal_path =
      BuildLineage("damaged", &updates, &server);
  ASSERT_TRUE(updates->CompactJournal().ok());  // versions now in side files

  // Replay with every side-file read failing: the lineage is abandoned
  // mid-replay, versions missing from memory.
  ASSERT_TRUE(fail::Arm(fail::points::kSnapshotRead, "every:1:eio").ok());
  server = Server{};
  Server damaged = Recover(journal_path);
  EXPECT_GT(damaged.replay.failed_names, 0u);
  fail::DisarmAll();

  // Explicit compaction refuses; the threshold trigger must not fire one
  // behind our back either.
  const Status refused = damaged.updates->CompactJournal();
  EXPECT_EQ(refused.code(), StatusCode::kInternal) << refused.ToString();
  EXPECT_EQ(damaged.updates->stats().compactions_refused, 1u);
  damaged.updates->SetJournalCompactThreshold(1);  // everything is "over"
  EXPECT_EQ(damaged.updates->stats().journal_compactions, 0u);

  // The journal survived the damaged run untouched: a healthy replay still
  // reconstructs the full lineage, and compaction works again.
  damaged = Server{};
  ExpectRecoveredState(journal_path, {7, 6}, 1);
  Server healthy = Recover(journal_path);
  EXPECT_TRUE(healthy.updates->CompactJournal().ok());
}

// A compacted journal keeps accepting appends through the adopted fd, and
// the combination (version records + fresh appends) replays correctly.
TEST_F(JournalCompactTest, AppendsAfterCompactionReplay) {
  Server server;
  UpdateManager* updates = nullptr;
  const std::string journal_path = BuildLineage("append", &updates, &server);

  ASSERT_TRUE(updates->CompactJournal().ok());
  ASSERT_TRUE(updates->Commit("g").ok());              // v3 from staged tail
  ASSERT_TRUE(updates->AddEdge("g", 4, 0, 0.75).ok());  // new staged tail

  server = Server{};
  ExpectRecoveredState(journal_path, {7, 6, 7}, 1);
}

// The payloads of the journal at `path`, as replay reads them.
std::vector<std::string> ReadPayloads(const std::string& path) {
  Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  if (!journal.ok()) return {};
  return (*journal)->recovered();
}

// Replaces the journal at `path` with `payloads`.
void WritePayloads(const std::string& path,
                   const std::vector<std::string>& payloads) {
  Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE((*journal)->ReplaceWith(payloads).ok());
}

TEST_F(JournalCompactTest, CompactedJournalMovesWithItsSideFiles) {
  const std::string from = TestTempDir("compact_from");
  const std::string graph_path = TestTempPath("compact_move_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::PaperExampleGraph(0.2), graph_path,
                             GraphFileFormat::kBinary)
                  .ok());
  {
    serve::GraphCatalog catalog;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(from + "/j.log");
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(&catalog, journal->get());
    ASSERT_TRUE(catalog.Load("g", graph_path).ok());
    ASSERT_TRUE(updates.AddEdge("g", 4, 0, 0.5).ok());
    ASSERT_TRUE(updates.Commit("g").ok());  // v1: 7 edges
    ASSERT_TRUE(updates.DeleteEdge("g", 4, 0).ok());
    ASSERT_TRUE(updates.Commit("g").ok());  // v2: 6 edges
    ASSERT_TRUE(updates.CompactJournal().ok());
  }
  std::size_t version_records = 0;
  for (const std::string& payload : ReadPayloads(from + "/j.log")) {
    if (payload.rfind("version ", 0) != 0) continue;
    ++version_records;
    EXPECT_EQ(payload.find('/'), std::string::npos) << payload;
  }
  EXPECT_EQ(version_records, 2u);

  // Move the directory: the records name side files beside the journal, so
  // the journal replays from its new place.
  const std::string to = TestTempPath("compact_to");
  ASSERT_EQ(std::rename(from.c_str(), to.c_str()), 0);
  ExpectRecoveredState(to + "/j.log", {7, 6}, 0);
}

TEST_F(JournalCompactTest, ReplaysTheFullSideFilePathsOfOlderJournals) {
  Server server;
  UpdateManager* updates = nullptr;
  const std::string journal_path = BuildLineage("full", &updates, &server);
  ASSERT_TRUE(updates->CompactJournal().ok());
  server = Server{};

  // Rewrite the compacted journal the way older ones were: each `version`
  // record carries the absolute path of its side file, here in a directory
  // apart from the journal's, so replay can only find it by that path.
  const std::string elsewhere = TestTempDir("compact_full_sides");
  const std::string journal_dir =
      journal_path.substr(0, journal_path.find_last_of('/'));
  std::vector<std::string> payloads = ReadPayloads(journal_path);
  std::size_t rewritten = 0;
  for (std::string& payload : payloads) {
    if (payload.rfind("version ", 0) != 0) continue;
    const std::size_t name_at = payload.find_last_of(' ') + 1;
    const std::string name = payload.substr(name_at);
    const std::string moved =
        std::filesystem::absolute(elsewhere + "/" + name).string();
    ASSERT_EQ(std::rename((journal_dir + "/" + name).c_str(), moved.c_str()),
              0)
        << name;
    payload = payload.substr(0, name_at) + moved;
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 2u);
  WritePayloads(journal_path, payloads);

  ExpectRecoveredState(journal_path, {7, 6}, 1);
}

}  // namespace
}  // namespace vulnds::dyn
