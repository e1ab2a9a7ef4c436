// The v2 snapshot codec through files: EncodeGraphBinary's bytes are
// written to disk and read back through ReadGraphFile, the path `load`,
// `convert` and journal replay take. A file whose length disagrees with its
// header, or whose columns break an invariant, is InvalidArgument.

#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds {
namespace {

using testing::SnapshotBytes;
using testing::WriteBytes;

void ExpectGraphsEqual(const UncertainGraph& a, const UncertainGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.self_risk(v), b.self_risk(v));  // bit-exact
  }
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edges()[e].src, b.edges()[e].src);
    EXPECT_EQ(a.edges()[e].dst, b.edges()[e].dst);
    EXPECT_EQ(a.edges()[e].prob, b.edges()[e].prob);
  }
}

// Reads `bytes` back as a snapshot file named `name`.
Result<UncertainGraph> LoadBytes(const std::string& bytes,
                                 const std::string& name) {
  return ReadGraphFile(WriteBytes(bytes, name));
}

Status LoadStatus(const std::string& bytes) {
  return LoadBytes(bytes, "graph_io_binary_patched.snap").status();
}

TEST(GraphIoBinaryTest, RoundTripPreservesEverything) {
  const UncertainGraph g = testing::RandomSmallGraph(9, 0.4, 1234);
  Result<UncertainGraph> back =
      LoadBytes(SnapshotBytes(g), "graph_io_binary_round_trip.snap");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectGraphsEqual(g, *back);
}

TEST(GraphIoBinaryTest, BinaryEqualsTextRoundTrip) {
  const UncertainGraph g = testing::PaperExampleGraph(0.2);
  std::stringstream text_buf;
  ASSERT_TRUE(WriteGraph(g, text_buf).ok());
  Result<UncertainGraph> from_text = ReadGraph(text_buf);
  Result<UncertainGraph> from_bin =
      LoadBytes(SnapshotBytes(g), "graph_io_binary_vs_text.snap");
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_bin.ok());
  ExpectGraphsEqual(*from_text, *from_bin);
}

TEST(GraphIoBinaryTest, EmptyGraphRoundTrip) {
  UncertainGraphBuilder b(0);
  const UncertainGraph g = b.Build().MoveValue();
  Result<UncertainGraph> back =
      LoadBytes(SnapshotBytes(g), "graph_io_binary_empty.snap");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_nodes(), 0u);
  EXPECT_EQ(back->num_edges(), 0u);
}

TEST(GraphIoBinaryTest, BadMagicRejected) {
  // Not the v2 magic, so ReadGraphFile hands it to the text reader, which
  // rejects the magic too; ReadGraphPage, which never guesses, rejects it
  // itself.
  const std::string path =
      WriteBytes("NOTMAGIC........................", "graph_io_bad_magic.snap");
  EXPECT_EQ(ReadGraphFile(path).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadGraphPage(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoBinaryTest, TruncatedHeaderRejected) {
  // Ten bytes carry the whole magic, so the file is taken for a snapshot
  // and fails its length check.
  const std::string full = SnapshotBytes(testing::ChainGraph(0.3, 0.6));
  EXPECT_EQ(LoadStatus(full.substr(0, 10)).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphIoBinaryTest, TruncatedPayloadRejected) {
  const std::string full = SnapshotBytes(testing::RandomSmallGraph(6, 0.5, 7));
  const Status st = LoadStatus(full.substr(0, full.size() - 3));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("header declares"), std::string::npos)
      << st.ToString();
}

// The exact-length rule holds both ways: bytes after the last column are
// rejected, not ignored.
TEST(GraphIoBinaryTest, TrailingBytesRejected) {
  std::string bytes = SnapshotBytes(testing::RandomSmallGraph(6, 0.5, 7));
  bytes.append("\0\0\0\0", 4);
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("header declares"), std::string::npos)
      << st.ToString();
}

TEST(GraphIoBinaryTest, FileRoundTripAndAutoDetect) {
  const UncertainGraph g = testing::PaperExampleGraph(0.25);
  const std::string bin_path = testing::TestTempPath("vulnds_bin_test.snap");
  const std::string text_path = testing::TestTempPath("vulnds_text_test.graph");
  ASSERT_TRUE(WriteGraphFile(g, bin_path, GraphFileFormat::kBinary).ok());
  ASSERT_TRUE(WriteGraphFile(g, text_path, GraphFileFormat::kText).ok());
  // ReadGraphFile detects the format from the magic in both cases.
  Result<UncertainGraph> from_bin = ReadGraphFile(bin_path);
  Result<UncertainGraph> from_text = ReadGraphFile(text_path);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ExpectGraphsEqual(*from_bin, *from_text);
}

TEST(GraphIoBinaryTest, HostileHeaderCountsRejectedWithoutAllocating) {
  // Magic + version, then node/edge counts claiming a multi-gigabyte
  // payload backed by nothing: must fail cleanly, not OOM.
  std::string bytes = "VULNDSG\n";
  const uint32_t version = 2;
  const uint64_t n = 4294967295ULL;  // max NodeId, passes the width check
  const uint64_t m = 4294967295ULL;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  bytes.append(reinterpret_cast<const char*>(&m), sizeof(m));
  EXPECT_EQ(LoadStatus(bytes).code(), StatusCode::kInvalidArgument);
}

// Byte layout of a v2 snapshot (graph_io.h): 8 magic + 4 version + 8 n +
// 8 m, then f64[n] risks, u64[n+1] offsets, u32[m] dsts, f64[m] probs,
// u32[m] edge ids. These helpers patch one element in place so each test
// can corrupt exactly one invariant of an otherwise valid dump.
struct SnapshotLayout {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t risks = 28;
  std::size_t offsets = 0;
  std::size_t dsts = 0;
  std::size_t probs = 0;
  std::size_t edge_ids = 0;
};

SnapshotLayout LayoutOf(const UncertainGraph& g) {
  SnapshotLayout l;
  l.n = g.num_nodes();
  l.m = g.num_edges();
  l.offsets = l.risks + 8 * l.n;
  l.dsts = l.offsets + 8 * (l.n + 1);
  l.probs = l.dsts + 4 * l.m;
  l.edge_ids = l.probs + 8 * l.m;
  return l;
}

template <typename T>
void Patch(std::string* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

TEST(GraphIoBinaryTest, CorruptProbabilityRejectedWithIndex) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.probs + 8 * 1, 2.5);  // arc 1's diffusion probability
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("arc 1"), std::string::npos) << st.ToString();
}

TEST(GraphIoBinaryTest, NaNProbabilityRejected) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.probs, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(LoadStatus(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoBinaryTest, CorruptSelfRiskRejectedWithIndex) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.risks + 8 * 2, -0.25);  // node 2's self-risk
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("node 2"), std::string::npos) << st.ToString();
  Patch(&bytes, l.risks + 8 * 2,
        std::numeric_limits<double>::infinity());
  EXPECT_EQ(LoadStatus(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoBinaryTest, OutOfRangeDestinationRejected) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.dsts, static_cast<uint32_t>(999));
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("999"), std::string::npos) << st.ToString();
}

TEST(GraphIoBinaryTest, SelfLoopArcRejected) {
  // Arc 0 belongs to node 0's group; pointing it back at node 0 forges a
  // self-loop the text loader could never produce.
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.dsts, static_cast<uint32_t>(0));
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("self-loop"), std::string::npos) << st.ToString();
}

TEST(GraphIoBinaryTest, NonMonotonicOffsetsRejected) {
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.offsets + 8 * 1, static_cast<uint64_t>(5));
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("node 1"), std::string::npos) << st.ToString();
}

TEST(GraphIoBinaryTest, OutOfOrderEdgeIdsRejected) {
  // Node A of the paper graph has arcs with edge ids 0 and 1; swapping them
  // breaks the builder's canonical ascending order, which samplers rely on
  // for reproducible coin-flip sequences.
  const UncertainGraph g = testing::PaperExampleGraph(0.2);
  const SnapshotLayout l = LayoutOf(g);
  std::string bytes = SnapshotBytes(g);
  Patch(&bytes, l.edge_ids, static_cast<uint32_t>(1));
  Patch(&bytes, l.edge_ids + 4, static_cast<uint32_t>(0));
  const Status st = LoadStatus(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("ascending"), std::string::npos) << st.ToString();
}

TEST(GraphIoBinaryTest, CorruptEdgeIdsRejected) {
  std::string bytes = SnapshotBytes(testing::ChainGraph(0.3, 0.6));
  // The edge-id column is the last 2 * sizeof(uint32_t) bytes; duplicate the
  // first id into the second so the permutation check must fire.
  ASSERT_GE(bytes.size(), 8u);
  bytes[bytes.size() - 4] = bytes[bytes.size() - 8];
  bytes[bytes.size() - 3] = bytes[bytes.size() - 7];
  bytes[bytes.size() - 2] = bytes[bytes.size() - 6];
  bytes[bytes.size() - 1] = bytes[bytes.size() - 5];
  EXPECT_EQ(LoadStatus(bytes).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vulnds
