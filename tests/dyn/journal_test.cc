// DeltaJournal framing/recovery and UpdateManager crash recovery: every
// committed name@vN must survive a kill -9, a torn tail must truncate to
// the longest valid record prefix, and replay must rebuild versions
// bit-identically — including through a scripted serve session.

#include "dyn/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::dyn {
namespace {

using testing::TestTempPath;

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(DeltaJournalTest, AppendReopenRecovers) {
  const std::string path = TestTempPath("journal_basic.log");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ((*journal)->records(), 0u);
    ASSERT_TRUE((*journal)->Append("open g 1 base.graph").ok());
    ASSERT_TRUE((*journal)->Append("add g 0 1 0.5").ok());
    ASSERT_TRUE((*journal)->Append("commit g 1").ok());
    ASSERT_TRUE((*journal)->Sync().ok());
    EXPECT_EQ((*journal)->records(), 3u);
    EXPECT_GT((*journal)->bytes(), 0u);
  }
  Result<std::unique_ptr<DeltaJournal>> reopened = DeltaJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->dropped_tail_bytes(), 0u);
  const std::vector<std::string>& records = (*reopened)->recovered();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "open g 1 base.graph");
  EXPECT_EQ(records[1], "add g 0 1 0.5");
  EXPECT_EQ(records[2], "commit g 1");
}

TEST(DeltaJournalTest, OversizeRecordRejected) {
  const std::string path = TestTempPath("journal_oversize.log");
  std::remove(path.c_str());
  Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  const std::string huge(DeltaJournal::kMaxRecordBytes + 1, 'x');
  EXPECT_EQ((*journal)->Append(huge).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*journal)->records(), 0u);
}

TEST(DeltaJournalTest, CorruptMiddleRecordTruncatesFromThere) {
  const std::string path = TestTempPath("journal_corrupt.log");
  std::remove(path.c_str());
  std::size_t first_frame = 0;
  {
    Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("one").ok());
    first_frame = (*journal)->bytes();
    ASSERT_TRUE((*journal)->Append("two").ok());
    ASSERT_TRUE((*journal)->Append("three").ok());
  }
  std::string bytes = FileBytes(path);
  bytes[first_frame + 8] ^= 0x40;  // flip a payload bit of record two
  WriteBytes(path, bytes);
  Result<std::unique_ptr<DeltaJournal>> reopened = DeltaJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->recovered().size(), 1u);
  EXPECT_EQ((*reopened)->recovered()[0], "one");
  EXPECT_EQ((*reopened)->dropped_tail_bytes(), bytes.size() - first_frame);
  EXPECT_EQ((*reopened)->bytes(), first_frame);
}

// Property: truncating the file at EVERY byte boundary recovers exactly the
// records that fit completely before the cut — the longest valid prefix —
// and the journal stays appendable afterwards.
TEST(DeltaJournalTest, TruncationAtEveryByteRecoversLongestValidPrefix) {
  const std::string path = TestTempPath("journal_prop.log");
  std::remove(path.c_str());
  const std::vector<std::string> payloads = {
      "open g 1 base.graph", "add g 0 1 0.25", "del g 2 3",
      "set g 4 5 0.125", "commit g 1"};
  std::vector<std::size_t> boundaries = {0};
  {
    Result<std::unique_ptr<DeltaJournal>> journal = DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE((*journal)->Append(payload).ok());
      boundaries.push_back((*journal)->bytes());
    }
  }
  const std::string bytes = FileBytes(path);
  ASSERT_EQ(bytes.size(), boundaries.back());
  const std::string cut_path = TestTempPath("journal_prop_cut.log");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::remove(cut_path.c_str());
    WriteBytes(cut_path, bytes.substr(0, cut));
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(cut_path);
    ASSERT_TRUE(journal.ok()) << "cut at " << cut;
    std::size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ((*journal)->recovered().size(), expect_records)
        << "cut at " << cut;
    for (std::size_t i = 0; i < expect_records; ++i) {
      ASSERT_EQ((*journal)->recovered()[i], payloads[i]) << "cut at " << cut;
    }
    ASSERT_EQ((*journal)->dropped_tail_bytes(),
              cut - boundaries[expect_records])
        << "cut at " << cut;
    // The truncated journal must accept appends again.
    ASSERT_TRUE((*journal)->Append("post-crash").ok()) << "cut at " << cut;
    ASSERT_EQ((*journal)->records(), expect_records + 1);
  }
}

// --- Crash recovery through UpdateManager ------------------------------

struct RecoveredServer {
  std::unique_ptr<serve::GraphCatalog> catalog;
  std::unique_ptr<DeltaJournal> journal;
  std::unique_ptr<UpdateManager> updates;
  JournalReplayStats replay;
};

// Opens `journal_path` and replays it into a fresh catalog, the way the
// serve CLI does at startup.
RecoveredServer Recover(const std::string& journal_path) {
  RecoveredServer server;
  server.catalog = std::make_unique<serve::GraphCatalog>();
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok());
  server.journal = journal.MoveValue();
  server.updates = std::make_unique<UpdateManager>(server.catalog.get(),
                                                   server.journal.get());
  Result<JournalReplayStats> replayed = server.updates->ReplayJournal();
  EXPECT_TRUE(replayed.ok());
  server.replay = *replayed;
  return server;
}

TEST(JournalRecoveryTest, CommittedVersionsSurviveRestartBitIdentically) {
  const std::string graph_path = TestTempPath("journal_rec_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::RandomSmallGraph(30, 0.2, 9),
                             graph_path, GraphFileFormat::kBinary)
                  .ok());
  const std::string journal_path = TestTempPath("journal_rec.log");
  std::remove(journal_path.c_str());

  std::string v1_snapshot;  // serialized g@v1 from the first process
  {
    serve::GraphCatalog catalog;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(&catalog, journal->get());
    ASSERT_TRUE(catalog.Load("g", graph_path).ok());
    ASSERT_TRUE(updates.AddEdge("g", 0, 7, 0.5).ok());
    ASSERT_TRUE(updates.AddEdge("g", 1, 8, 0.25).ok());
    ASSERT_TRUE(updates.Commit("g").ok());
    ASSERT_TRUE(updates.SetProb("g", 0, 7, 0.75).ok());
    ASSERT_TRUE(updates.Commit("g").ok());
    ASSERT_TRUE(updates.AddEdge("g", 2, 9, 0.125).ok());  // staged, no commit
    const auto v1 = catalog.Get("g@v1");
    ASSERT_NE(v1, nullptr);
    const std::string out = TestTempPath("journal_rec_v1_before.snap");
    ASSERT_TRUE(
        WriteGraphFile(v1->graph, out, GraphFileFormat::kBinary).ok());
    v1_snapshot = FileBytes(out);
    // No clean shutdown: the catalog/journal simply go away (the journal's
    // commit records were fsync'd, which is all kill -9 leaves behind).
  }

  RecoveredServer server = Recover(journal_path);
  EXPECT_EQ(server.replay.commits, 2u);
  EXPECT_EQ(server.replay.ops, 4u);  // add, add, set, and the staged tail add
  EXPECT_EQ(server.replay.skipped, 0u);

  // Both committed versions are back under their exact names.
  EXPECT_NE(server.catalog->Get("g@v1"), nullptr);
  EXPECT_NE(server.catalog->Get("g@v2"), nullptr);
  Result<std::vector<serve::VersionInfo>> versions =
      server.updates->Versions("g");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 3u);
  EXPECT_EQ((*versions)[1].catalog_name, "g@v1");
  EXPECT_EQ((*versions)[2].catalog_name, "g@v2");

  // v1 is bit-identical to the pre-crash snapshot.
  const auto v1 = server.catalog->Get("g@v1");
  const std::string out = TestTempPath("journal_rec_v1_after.snap");
  ASSERT_TRUE(WriteGraphFile(v1->graph, out, GraphFileFormat::kBinary).ok());
  EXPECT_EQ(FileBytes(out), v1_snapshot);

  // The staged-but-uncommitted tail op was re-staged: committing now
  // materializes it as v3.
  Result<serve::CommitInfo> commit = server.updates->Commit("g");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->versioned_name, "g@v3");
  EXPECT_EQ(commit->ops, 1u);
}

// Kill mid-commit: the journal ends inside the commit record. Replay must
// restore every fully committed version, drop the torn record, and leave
// the tail ops staged — verified through a scripted serve session, the
// same surface an operator sees.
TEST(JournalRecoveryTest, KillMidCommitKeepsCommittedPrefixThroughServe) {
  const std::string graph_path = TestTempPath("journal_kill_base.snap");
  ASSERT_TRUE(WriteGraphFile(testing::RandomSmallGraph(25, 0.2, 13),
                             graph_path, GraphFileFormat::kBinary)
                  .ok());
  const std::string journal_path = TestTempPath("journal_kill.log");
  std::remove(journal_path.c_str());

  std::size_t bytes_before_second_commit = 0;
  {
    serve::GraphCatalog catalog;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(&catalog, journal->get());
    ASSERT_TRUE(catalog.Load("g", graph_path).ok());
    ASSERT_TRUE(updates.AddEdge("g", 0, 5, 0.5).ok());
    ASSERT_TRUE(updates.Commit("g").ok());
    ASSERT_TRUE(updates.AddEdge("g", 1, 6, 0.25).ok());
    bytes_before_second_commit = (*journal)->bytes();
    ASSERT_TRUE(updates.Commit("g").ok());
  }
  // Simulate the kill landing mid-append of v2's commit record: keep a
  // few bytes of its frame but not all of it.
  const std::string bytes = FileBytes(journal_path);
  ASSERT_GT(bytes.size(), bytes_before_second_commit + 3);
  WriteBytes(journal_path, bytes.substr(0, bytes_before_second_commit + 3));

  RecoveredServer server = Recover(journal_path);
  EXPECT_EQ(server.replay.commits, 1u);
  EXPECT_GT(server.replay.dropped_tail_bytes, 0u);

  serve::QueryEngine engine(server.catalog.get());
  std::istringstream in("versions g\nstats\nquit\n");
  std::ostringstream out;
  serve::RunServeLoop(in, out, engine, server.updates.get());
  const std::string output = out.str();
  EXPECT_NE(output.find("ok versions g count=2"), std::string::npos)
      << output;
  EXPECT_NE(output.find("g@v1"), std::string::npos) << output;
  EXPECT_EQ(output.find("g@v2"), std::string::npos)
      << "torn commit must not resurrect v2: " << output;
  // The stats verb reports the journal's size (satellite of the storage
  // vocabulary) — nonzero because the valid prefix survived.
  EXPECT_NE(output.find("journal_bytes=" +
                        std::to_string(bytes_before_second_commit)),
            std::string::npos)
      << output;

  // The re-staged tail op (add g 1 6) commits as v2 after recovery.
  Result<serve::CommitInfo> commit = server.updates->Commit("g");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->versioned_name, "g@v2");
}

TEST(JournalRecoveryTest, MemorySourcedLineageIsSkippedNotFatal) {
  const std::string journal_path = TestTempPath("journal_mem.log");
  std::remove(journal_path.c_str());
  {
    serve::GraphCatalog catalog;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    UpdateManager updates(&catalog, journal->get());
    ASSERT_TRUE(catalog.Put("m", testing::PaperExampleGraph(0.2)).ok());
    ASSERT_TRUE(updates.AddEdge("m", 0, 4, 0.5).ok());
    ASSERT_TRUE(updates.Commit("m").ok());
  }
  // "m" was Put() from memory: there is no source to reload it from, so
  // replay must abandon the lineage without failing startup.
  RecoveredServer server = Recover(journal_path);
  EXPECT_EQ(server.replay.commits, 0u);
  EXPECT_GE(server.replay.skipped, 1u);
  EXPECT_EQ(server.replay.failed_names, 1u);
  EXPECT_EQ(server.catalog->Get("m@v1"), nullptr);
}

}  // namespace
}  // namespace vulnds::dyn
