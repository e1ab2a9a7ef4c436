// ReadGraphPage, the one v2 reader: a clean page reads back bit-identical,
// and a seeded mutation sweep (truncate, extend, flip header and body
// bytes, with the expected CRC either the original one or the mutated
// bytes' own) never crashes, reads out of bounds or over-allocates. Every
// mutant is rejected or comes back as a graph that passes the same
// structural checks as a snapshot load. A second sweep mutates text
// snapshots read through ReadGraphFile. Run under ASan + UBSan in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "graph/graph_io.h"
#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds {
namespace {

using testing::SnapshotBytes;

constexpr std::size_t kHeaderBytes = 28;  // magic, version, n, m

std::string WritePage(const std::string& bytes, const std::string& name) {
  return testing::WriteBytes(bytes, name);
}

// A reverse CSR consistent with the forward one and the edge list.
void ExpectReverseCsrSound(const UncertainGraph& g) {
  std::size_t in_arcs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Arc& arc : g.InArcs(v)) {
      ASSERT_LT(arc.neighbor, g.num_nodes());
      ASSERT_LT(arc.edge, g.num_edges());
      EXPECT_EQ(g.edges()[arc.edge].dst, v);
      EXPECT_EQ(g.edges()[arc.edge].src, arc.neighbor);
      ++in_arcs;
    }
  }
  EXPECT_EQ(in_arcs, g.num_edges());
}

// A graph a page read accepted must be what a snapshot load of the same
// bytes accepts, re-encode to exactly those bytes, and carry a reverse CSR
// consistent with its forward one.
void ExpectStructurallySound(const UncertainGraph& g,
                             const std::string& bytes) {
  EXPECT_EQ(SnapshotBytes(g), bytes);
  EXPECT_TRUE(ReadGraphFile(WritePage(bytes, "page_sound.snap")).ok());
  ExpectReverseCsrSound(g);
}

TEST(GraphPageTest, CleanPageReadsBackBitIdentical) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.2, 17);
  const std::string bytes = SnapshotBytes(g);
  const std::string path = WritePage(bytes, "page_clean.vg2");
  bool reserved = false;
  Result<UncertainGraph> back = ReadGraphPage(
      path, Crc32(bytes.data(), bytes.size()), [&] { reserved = true; });
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(reserved);
  ExpectStructurallySound(*back, bytes);
}

TEST(GraphPageTest, WrongCrcIsRejectedBeforeAssembly) {
  const UncertainGraph g = testing::RandomSmallGraph(30, 0.2, 18);
  const std::string bytes = SnapshotBytes(g);
  const std::string path = WritePage(bytes, "page_crc.vg2");
  Result<UncertainGraph> back =
      ReadGraphPage(path, Crc32(bytes.data(), bytes.size()) ^ 1u);
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphPageTest, MissingFileIsAnIoError) {
  Result<UncertainGraph> back =
      ReadGraphPage(testing::TestTempPath("missing.vg2"), 0);
  EXPECT_EQ(back.status().code(), StatusCode::kIOError);
}

// A header that declares more than the file holds — up to the full 32-bit
// id width — fails its length check before anything is allocated, and
// before the caller's reservation runs.
TEST(GraphPageTest, HostileHeaderFailsBeforeAllocation) {
  std::string bytes = SnapshotBytes(testing::ChainGraph(0.3, 0.6));
  const uint64_t huge = 4294967295ULL;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));
  const std::string path = WritePage(bytes, "page_hostile.vg2");
  bool reserved = false;
  Result<UncertainGraph> back = ReadGraphPage(
      path, Crc32(bytes.data(), bytes.size()), [&] { reserved = true; });
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reserved);
}

enum class Mutation { kTruncate, kExtend, kFlipHeader, kFlipBody };

std::string Mutate(const std::string& bytes, Mutation mutation, Rng& rng) {
  std::string out = bytes;
  switch (mutation) {
    case Mutation::kTruncate:
      out.resize(rng.NextBounded(bytes.size()));
      break;
    case Mutation::kExtend:
      for (uint64_t i = 1 + rng.NextBounded(16); i > 0; --i) {
        out.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      break;
    case Mutation::kFlipHeader:
      out[rng.NextBounded(kHeaderBytes)] ^=
          static_cast<char>(1 + rng.NextBounded(255));
      break;
    case Mutation::kFlipBody:
      for (uint64_t i = 1 + rng.NextBounded(3); i > 0; --i) {
        const std::size_t at =
            kHeaderBytes + rng.NextBounded(bytes.size() - kHeaderBytes);
        out[at] ^= static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
  }
  return out;
}

TEST(GraphPageTest, SeededMutationSweepRejectsOrYieldsSoundGraphs) {
  Rng rng(20260517);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int seed = 0; seed < 400; ++seed) {
    const UncertainGraph g = testing::RandomSmallGraph(
        2 + rng.NextBounded(30), 0.05 + rng.NextDouble() * 0.3, 900 + seed);
    const std::string bytes = SnapshotBytes(g);
    const auto mutation = static_cast<Mutation>(seed % 4);
    const std::string mutated = Mutate(bytes, mutation, rng);
    // Half the cases carry the mutated bytes' own CRC, so the structural
    // checks behind the CRC are reached.
    const bool crc_matches = (seed / 4) % 2 == 1;
    const uint32_t crc = crc_matches ? Crc32(mutated.data(), mutated.size())
                                     : Crc32(bytes.data(), bytes.size());
    const std::string path = WritePage(mutated, "page_mutant.vg2");
    Result<UncertainGraph> back = ReadGraphPage(path, crc);
    SCOPED_TRACE("seed " + std::to_string(seed) + " mutation " +
                 std::to_string(seed % 4));
    if (!back.ok()) {
      EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument)
          << back.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    // Only a mutant whose CRC was recomputed can pass, and then only as a
    // structurally sound graph (a flipped probability bit, say).
    EXPECT_TRUE(crc_matches || mutated == bytes);
    ExpectStructurallySound(*back, mutated);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);  // some body flips land on valid values
}

enum class TextMutation { kTruncate, kExtend, kFlip, kDigit };

std::string MutateText(const std::string& text, TextMutation mutation,
                       Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789 .-e\n#x";
  std::string out = text;
  switch (mutation) {
    case TextMutation::kTruncate:
      out.resize(rng.NextBounded(text.size()));
      break;
    case TextMutation::kExtend:
      for (uint64_t i = 1 + rng.NextBounded(16); i > 0; --i) {
        out.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
      }
      break;
    case TextMutation::kFlip:
      for (uint64_t i = 1 + rng.NextBounded(3); i > 0; --i) {
        out[rng.NextBounded(out.size())] ^=
            static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
    case TextMutation::kDigit:
      // Stays inside the grammar's alphabet, so most mutants still tokenize
      // and reach the builder's checks (ids, probabilities, self-loops).
      for (uint64_t i = 1 + rng.NextBounded(3); i > 0; --i) {
        out[rng.NextBounded(out.size())] =
            kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
      }
      break;
  }
  return out;
}

// The text loader behind ReadGraphFile under the same kind of sweep: every
// mutant is rejected, or loads as a graph whose own text re-reads to it and
// whose reverse CSR is sound.
TEST(GraphPageTest, SeededTextMutationSweepRejectsOrYieldsSoundGraphs) {
  Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int seed = 0; seed < 400; ++seed) {
    const UncertainGraph g = testing::RandomSmallGraph(
        2 + rng.NextBounded(30), 0.05 + rng.NextDouble() * 0.3, 1300 + seed);
    std::stringstream text;
    ASSERT_TRUE(WriteGraph(g, text).ok());
    const auto mutation = static_cast<TextMutation>(seed % 4);
    const std::string mutated = MutateText(text.str(), mutation, rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " mutation " +
                 std::to_string(seed % 4));
    Result<UncertainGraph> back =
        ReadGraphFile(WritePage(mutated, "text_mutant.graph"));
    if (!back.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::stringstream again;
    ASSERT_TRUE(WriteGraph(*back, again).ok());
    Result<UncertainGraph> reread = ReadGraph(again);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    std::stringstream twice;
    ASSERT_TRUE(WriteGraph(*reread, twice).ok());
    EXPECT_EQ(twice.str(), again.str());
    ExpectReverseCsrSound(*back);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);  // e.g. trailing comments, a changed digit
}

// A text header may declare any node count; the loader must not size
// anything from it before the self-risks it promises have arrived.
TEST(GraphPageTest, HostileTextNodeCountFailsWithoutAllocating) {
  const std::string path = WritePage(
      "vulnds-graph 1\n1000000000000 1\n0.5 0.5\n", "text_hostile.graph");
  Result<UncertainGraph> back = ReadGraphFile(path);
  EXPECT_FALSE(back.ok());
}

}  // namespace
}  // namespace vulnds
