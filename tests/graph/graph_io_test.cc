#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds {
namespace {

TEST(GraphIoTest, RoundTripPreservesEverything) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  std::stringstream buf;
  ASSERT_TRUE(WriteGraph(g, buf).ok());
  Result<UncertainGraph> back = ReadGraph(buf);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(back->self_risk(v), g.self_risk(v));
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back->edges()[e].src, g.edges()[e].src);
    EXPECT_EQ(back->edges()[e].dst, g.edges()[e].dst);
    EXPECT_DOUBLE_EQ(back->edges()[e].prob, g.edges()[e].prob);
  }
}

TEST(GraphIoTest, RoundTripRandomGraphExactDoubles) {
  UncertainGraph g = testing::RandomSmallGraph(8, 0.3, 99);
  std::stringstream buf;
  ASSERT_TRUE(WriteGraph(g, buf).ok());
  Result<UncertainGraph> back = ReadGraph(buf);
  ASSERT_TRUE(back.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(back->self_risk(v), g.self_risk(v));  // bit-exact (17 digits)
  }
}

TEST(GraphIoTest, CommentsAndWhitespaceSkipped) {
  std::stringstream buf(
      "# a comment\n"
      "vulnds-graph 1\n"
      "  # another\n"
      "2 1\n"
      "0.5 0.25\n"
      "0 1 0.75\n");
  Result<UncertainGraph> g = ReadGraph(buf);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(g->self_risk(1), 0.25);
  EXPECT_DOUBLE_EQ(g->edges()[0].prob, 0.75);
}

TEST(GraphIoTest, BadMagicRejected) {
  std::stringstream buf("not-a-graph 1\n2 0\n0 0\n");
  EXPECT_EQ(ReadGraph(buf).status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, BadVersionRejected) {
  std::stringstream buf("vulnds-graph 9\n");
  EXPECT_EQ(ReadGraph(buf).status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, TruncatedFileRejected) {
  std::stringstream buf("vulnds-graph 1\n3 2\n0.1 0.2 0.3\n0 1 0.5\n");
  EXPECT_EQ(ReadGraph(buf).status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, InvalidProbabilityRejected) {
  std::stringstream buf("vulnds-graph 1\n2 1\n0.1 0.2\n0 1 1.5\n");
  EXPECT_EQ(ReadGraph(buf).status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, FileRoundTrip) {
  UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const std::string path = testing::TestTempPath("io_test.graph");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  Result<UncertainGraph> back = ReadGraphFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), 3u);
  EXPECT_EQ(back->num_edges(), 2u);
}

TEST(GraphIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadGraphFile("/nonexistent/path/g.graph").status().code(),
            StatusCode::kIOError);
}

TEST(GraphIoTest, EmptyGraphRoundTrip) {
  UncertainGraphBuilder b(0);
  UncertainGraph g = b.Build().MoveValue();
  std::stringstream buf;
  ASSERT_TRUE(WriteGraph(g, buf).ok());
  Result<UncertainGraph> back = ReadGraph(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), 0u);
}

}  // namespace
}  // namespace vulnds
