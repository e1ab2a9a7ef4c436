// ReadGraphPage, the spill-page reader: a clean page reads back
// bit-identical, and a seeded mutation sweep (truncate, extend, flip header
// and body bytes, with the expected CRC either the original one or the
// mutated bytes' own) never crashes, reads out of bounds or over-allocates.
// Every mutant is rejected or comes back as a graph that passes the same
// structural checks as a snapshot load. Run under ASan + UBSan in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "graph/graph_io.h"
#include "testing/test_graphs.h"

namespace vulnds {
namespace {

constexpr std::size_t kHeaderBytes = 28;  // magic, version, n, m

std::string SnapshotBytes(const UncertainGraph& g) {
  std::stringstream buf;
  EXPECT_TRUE(WriteGraphBinary(g, buf).ok());
  return buf.str();
}

std::string WritePage(const std::string& bytes, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

// A graph a page read accepted must be what a snapshot load of the same
// bytes accepts, re-serialize to exactly those bytes, and carry a reverse
// CSR consistent with its forward one.
void ExpectStructurallySound(const UncertainGraph& g,
                             const std::string& bytes) {
  EXPECT_EQ(SnapshotBytes(g), bytes);
  std::stringstream in(bytes);
  EXPECT_TRUE(ReadGraphBinary(in).ok());
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
      ReadGraphPage(::testing::TempDir() + "/page_missing.vg2", 0);
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

}  // namespace
}  // namespace vulnds
