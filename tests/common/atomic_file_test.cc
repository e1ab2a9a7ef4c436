// ReplaceFileAtomic, the one file-replacement path: the bytes and CRC it
// writes, its temp-file naming, that a failure at any step under any
// injected outcome leaves the destination as it was and no temp behind
// (fsync on and off), and the journal's adoption of the written fd.

#include "common/atomic_file.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "dyn/journal.h"
#include "testing/temp_path.h"

namespace vulnds {
namespace {

constexpr const char* kOpen = "test.atomic.open";
constexpr const char* kWrite = "test.atomic.write";
constexpr const char* kFsync = "test.atomic.fsync";
constexpr const char* kRename = "test.atomic.rename";

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    dir_ = testing::TestTempDir("atomic_file");
  }
  void TearDown() override { fail::DisarmAll(); }

  std::vector<std::string> List() const {
    std::vector<std::string> names;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..") names.push_back(name);
      }
      ::closedir(d);
    }
    return names;
  }

  std::string dir_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

AtomicFileOptions AllFailpoints(bool fsync) {
  AtomicFileOptions options;
  options.fsync = fsync;
  options.open_failpoint = kOpen;
  options.write_failpoint = kWrite;
  options.fsync_failpoint = kFsync;
  options.rename_failpoint = kRename;
  return options;
}

// Appends `body` in pieces of mixed sizes, some larger than the writer's
// buffer, so both the buffered and the direct write paths run.
Status AppendInPieces(ByteSink& out, const std::string& body) {
  std::size_t at = 0;
  std::size_t piece = 1;
  while (at < body.size()) {
    const std::size_t len = std::min(piece, body.size() - at);
    VULNDS_RETURN_NOT_OK(out.Append(body.data() + at, len));
    at += len;
    piece = piece * 7 + 3;
  }
  return Status::OK();
}

std::string PatternBytes(std::size_t len) {
  std::string out(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<char>((i * 131) ^ (i >> 8));
  }
  return out;
}

TEST_F(AtomicFileTest, WritesTheBodyAndItsCrc) {
  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                std::size_t{70000}, std::size_t{400000}}) {
    SCOPED_TRACE(len);
    const std::string body = PatternBytes(len);
    const std::string path = dir_ + "/file.vg2";
    uint32_t crc = 1;
    ASSERT_TRUE(ReplaceFileAtomic(path, AllFailpoints(true),
                                  [&](ByteSink& out) {
                                    return AppendInPieces(out, body);
                                  },
                                  &crc)
                    .ok());
    EXPECT_EQ(ReadAll(path), body);
    EXPECT_EQ(crc, Crc32(body.data(), body.size()));
    EXPECT_EQ(List(), std::vector<std::string>{"file.vg2"});
  }
}

// The temp is `<dest>.tmp.<pid>.<serial>`: it carries the destination's
// name, so the spill GC's ".vg2" match reclaims one a crash left.
TEST_F(AtomicFileTest, TempNameCarriesDestinationPidAndSerial) {
  const std::string path = dir_ + "/g.7.3.vg2";
  std::vector<std::string> during;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ReplaceFileAtomic(path, {}, [&](ByteSink& out) {
                  during = List();
                  return out.Append("x", 1);
                }).ok());
    ASSERT_EQ(during.size(), i == 0 ? 1u : 2u);
  }
  const std::string prefix =
      "g.7.3.vg2.tmp." + std::to_string(::getpid()) + ".";
  std::string temp;
  for (const std::string& name : during) {
    if (name != "g.7.3.vg2") temp = name;
  }
  ASSERT_EQ(temp.rfind(prefix, 0), 0u) << temp;
  const std::string serial = temp.substr(prefix.size());
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.find_first_not_of("0123456789"), std::string::npos);
  EXPECT_EQ(List(), std::vector<std::string>{"g.7.3.vg2"});
}

// Every step under every outcome, with fsync on and off: the call fails
// with IOError, the failpoint fired once, the old destination is intact and
// no temp file is left. Without fsync the fsync step is never reached.
TEST_F(AtomicFileTest, FailureAtAnyStepLeavesDestinationAndNoTemp) {
  const std::string path = dir_ + "/dest.snap";
  const std::string old_bytes = "the old complete file";
  const std::string body = PatternBytes(200000);
  for (const bool fsync : {true, false}) {
    for (const char* point : {kOpen, kWrite, kFsync, kRename}) {
      for (const char* outcome : {"eio", "enospc", "short"}) {
        SCOPED_TRACE(std::string(point) + " " + outcome +
                     (fsync ? " fsync" : " no-fsync"));
        fail::DisarmAll();
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          out << old_bytes;
        }
        ASSERT_TRUE(fail::Arm(point, std::string("once:") + outcome).ok());
        const Status st = ReplaceFileAtomic(
            path, AllFailpoints(fsync),
            [&](ByteSink& out) { return AppendInPieces(out, body); });
        if (!fsync && point == kFsync) {
          EXPECT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(fail::Hits(point), 0u);
          EXPECT_EQ(ReadAll(path), body);
        } else {
          EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
          EXPECT_EQ(fail::Hits(point), 1u);
          EXPECT_EQ(ReadAll(path), old_bytes);
        }
        EXPECT_EQ(List(), std::vector<std::string>{"dest.snap"});
      }
    }
  }
}

TEST_F(AtomicFileTest, BodyErrorIsReturnedAndTheTempRemoved) {
  const std::string path = dir_ + "/dest.snap";
  const Status st = ReplaceFileAtomic(path, AllFailpoints(true),
                                      [&](ByteSink& out) {
                                        VULNDS_RETURN_NOT_OK(
                                            out.Append("partial", 7));
                                        return Status::InvalidArgument("bad");
                                      });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(List().empty());
}

TEST_F(AtomicFileTest, AdoptedFdIsTheRenamedFileAtItsEnd) {
  const std::string path = dir_ + "/adopted.log";
  int fd = -1;
  ASSERT_TRUE(ReplaceFileAtomic(path, AllFailpoints(true),
                                [&](ByteSink& out) {
                                  return out.Append("head", 4);
                                },
                                nullptr, &fd)
                  .ok());
  ASSERT_GE(fd, 0);
  struct stat by_fd{};
  struct stat by_name{};
  ASSERT_EQ(::fstat(fd, &by_fd), 0);
  ASSERT_EQ(::stat(path.c_str(), &by_name), 0);
  EXPECT_EQ(by_fd.st_ino, by_name.st_ino);
  ASSERT_EQ(::write(fd, "tail", 4), 4);
  ::close(fd);
  EXPECT_EQ(ReadAll(path), "headtail");
}

// The journal adopts the compaction writer's fd: appends after a
// compaction land in the new file, and a failed compaction at any step
// leaves the journal appending to its old file.
TEST_F(AtomicFileTest, JournalAdoptsTheCompactedFile) {
  const std::string path = dir_ + "/journal.log";
  {
    auto journal = dyn::DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const char* p : {"a", "b", "c"}) {
      ASSERT_TRUE((*journal)->Append(p).ok());
    }
    for (const char* point : {fail::points::kJournalCompactWrite,
                              fail::points::kJournalCompactFsync,
                              fail::points::kJournalCompactRename}) {
      ASSERT_TRUE(fail::Arm(point, "once:short").ok());
      EXPECT_FALSE((*journal)->ReplaceWith({"x"}).ok()) << point;
      EXPECT_EQ((*journal)->records(), 3u);
    }
    ASSERT_TRUE((*journal)->Append("d").ok());
    ASSERT_TRUE((*journal)->ReplaceWith({"ab", "cd"}).ok());
    EXPECT_EQ((*journal)->records(), 2u);
    ASSERT_TRUE((*journal)->Append("e").ok());
    ASSERT_TRUE((*journal)->Sync().ok());
    EXPECT_EQ((*journal)->bytes(), 3 * 8 + 5u);
  }
  EXPECT_EQ(List(), std::vector<std::string>{"journal.log"});
  auto reopened = dyn::DeltaJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovered(),
            (std::vector<std::string>{"ab", "cd", "e"}));
  EXPECT_EQ((*reopened)->dropped_tail_bytes(), 0u);
}

TEST_F(AtomicFileTest, SanitizeForFilenameKeepsOnlySafeBytes) {
  EXPECT_EQ(SanitizeForFilename("g@v3"), "g_v3");
  EXPECT_EQ(SanitizeForFilename("a/b c"), "a_b_c");
  EXPECT_EQ(SanitizeForFilename("Ok.name_-9"), "Ok.name_-9");
}

}  // namespace
}  // namespace vulnds
