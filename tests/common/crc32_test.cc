// Crc32 must stay bit-identical to the textbook bit-at-a-time CRC-32: the
// journal's record frames and the spill files' checksums written by any
// earlier build have to keep verifying.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dyn/journal.h"
#include "testing/temp_path.h"

namespace vulnds {
namespace {

// The definition the sliced implementation must reproduce: one bit per
// step, reflected polynomial 0xEDB88320, init and final xor 0xFFFFFFFF.
uint32_t ReferenceCrc32(const unsigned char* bytes, std::size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 4100;
  constexpr std::size_t kMaxOffset = 7;
  std::mt19937 rng(20220501);
  std::vector<unsigned char> buffer(kMaxLen + kMaxOffset);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, len), ReferenceCrc32(start, len))
          << "offset " << offset << " len " << len;
    }
  }
}

// Extending a CRC chunk by chunk equals one pass over the whole buffer, at
// every split point, so a reader can check a file column by column.
TEST(Crc32Test, ExtendOverAnySplitEqualsOnePass) {
  std::mt19937 rng(20260517);
  std::vector<unsigned char> buffer(300);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(Crc32Extend(0, buffer.data(), buffer.size()), whole);
  for (std::size_t a = 0; a <= buffer.size(); ++a) {
    for (std::size_t b = a; b <= buffer.size(); b += 37) {
      uint32_t crc = Crc32(buffer.data(), a);
      crc = Crc32Extend(crc, buffer.data() + a, b - a);
      crc = Crc32Extend(crc, buffer.data() + b, buffer.size() - b);
      ASSERT_EQ(crc, whole) << "split " << a << "/" << b;
    }
  }
}

TEST(Crc32Test, JournalFrameBytesArePinned) {
  // [len u32 LE][crc u32 LE][payload] for one commit barrier record. A
  // change here means journals written by earlier builds no longer replay.
  const std::string path = testing::TestTempPath("pinned_frame.log");
  {
    Result<std::unique_ptr<dyn::DeltaJournal>> journal =
        dyn::DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("commit g 1").ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string expected("\x0a\x00\x00\x00\xa1\x4f\x56\xf1"
                             "commit g 1",
                             18);
  EXPECT_EQ(bytes.str(), expected);
  EXPECT_EQ(Crc32("commit g 1", 10), 0xF1564FA1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vulnds
