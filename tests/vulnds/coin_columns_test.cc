// CoinColumns invariants: the carry-forward (BuildFrom) must equal a fresh
// Build no matter what delta produced the new version — reuse changes cost,
// never content — and the dynamic-commit seeding must leave the committed
// graph's derived cache holding exactly what the first query would have
// built.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dyn/dynamic_graph.h"
#include "graph/builder.h"
#include "testing/test_graphs.h"
#include "vulnds/coin_columns.h"

namespace vulnds {
namespace {

void ExpectSameColumns(const CoinColumns& a, const CoinColumns& b,
                       const std::string& what) {
  EXPECT_EQ(a.pad_offsets, b.pad_offsets) << what;
  EXPECT_EQ(a.edge_inner, b.edge_inner) << what;
  EXPECT_EQ(a.edge_threshold, b.edge_threshold) << what;
  EXPECT_EQ(a.edge_neighbor, b.edge_neighbor) << what;
  EXPECT_EQ(a.node_inner, b.node_inner) << what;
  EXPECT_EQ(a.node_threshold, b.node_threshold) << what;
}

// Rebuilds a commit-shaped new version by hand: live base edges in original
// order (probabilities patched), deleted ids dropped, insertions appended —
// the exact id assignment DynamicGraph::Commit documents.
UncertainGraph ApplyDelta(const UncertainGraph& base,
                          const std::vector<EdgeId>& deleted_sorted,
                          const std::vector<std::pair<EdgeId, double>>& repriced,
                          const std::vector<UncertainEdge>& added) {
  UncertainGraphBuilder b(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    testing::CheckOk(b.SetSelfRisk(v, base.self_risk(v)));
  }
  std::size_t next_deleted = 0;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    if (next_deleted < deleted_sorted.size() &&
        deleted_sorted[next_deleted] == e) {
      ++next_deleted;
      continue;
    }
    UncertainEdge edge = base.edges()[e];
    for (const auto& [id, prob] : repriced) {
      if (id == e) edge.prob = prob;
    }
    testing::CheckOk(b.AddEdge(edge.src, edge.dst, edge.prob));
  }
  for (const UncertainEdge& e : added) {
    testing::CheckOk(b.AddEdge(e.src, e.dst, e.prob));
  }
  return b.Build().MoveValue();
}

TEST(CoinColumnsTest, BuildFromMatchesBuildAcrossRandomDeltas) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    const UncertainGraph base = testing::RandomSmallGraph(24, 0.3, seed);
    const CoinColumns base_cols = CoinColumns::Build(base);
    Rng rng(seed * 1000 + 5);

    // Deletions: every edge with probability 1/8, kept sorted by id.
    std::vector<EdgeId> deleted;
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      if (rng.NextBounded(8) == 0) deleted.push_back(e);
    }
    // Reprices on surviving edges with probability 1/6.
    std::vector<std::pair<EdgeId, double>> repriced;
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      if (std::find(deleted.begin(), deleted.end(), e) != deleted.end()) {
        continue;
      }
      if (rng.NextBounded(6) == 0) repriced.emplace_back(e, rng.NextDouble());
    }
    // Insertions on pairs the base does not already contain.
    std::set<std::pair<NodeId, NodeId>> pairs;
    for (const UncertainEdge& e : base.edges()) pairs.emplace(e.src, e.dst);
    std::vector<UncertainEdge> added;
    while (added.size() < 5) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(24));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(24));
      if (u == v || !pairs.emplace(u, v).second) continue;
      added.push_back({u, v, rng.NextDouble()});
    }

    const UncertainGraph next = ApplyDelta(base, deleted, repriced, added);
    ExpectSameColumns(
        CoinColumns::BuildFrom(next, base, base_cols, deleted),
        CoinColumns::Build(next), "seed=" + std::to_string(seed));
  }
}

TEST(CoinColumnsTest, BuildFromNeverTrustsAnUnrelatedBase) {
  // The contract is unconditional: handing BuildFrom a base that is NOT a
  // previous version — even with a bogus deleted list — must still yield
  // exactly Build(graph), because every copy is gated on value equality.
  const UncertainGraph g = testing::RandomSmallGraph(20, 0.25, 11);
  const UncertainGraph unrelated = testing::RandomSmallGraph(20, 0.25, 99);
  const CoinColumns unrelated_cols = CoinColumns::Build(unrelated);
  const std::vector<EdgeId> bogus_deleted = {0, 3, 4, 17};
  ExpectSameColumns(
      CoinColumns::BuildFrom(g, unrelated, unrelated_cols, bogus_deleted),
      CoinColumns::Build(g), "unrelated base");

  // Mismatched shapes fall back to a fresh build outright.
  const UncertainGraph smaller = testing::RandomSmallGraph(10, 0.25, 5);
  ExpectSameColumns(
      CoinColumns::BuildFrom(g, smaller, CoinColumns::Build(smaller), {}),
      CoinColumns::Build(g), "mismatched n");
}

TEST(CoinColumnsTest, WorthwhileFollowsDensity) {
  // ~0.3 * 23 ≈ 7 average in-degree: above the kCoinLanes gate.
  EXPECT_TRUE(CoinColumns::Worthwhile(testing::RandomSmallGraph(24, 0.3, 3)));
  // A chain has average degree < 1.
  EXPECT_FALSE(CoinColumns::Worthwhile(testing::ChainGraph(0.5, 0.5)));
}

TEST(CoinColumnsTest, CommitSeedsTheDerivedCacheWhenTheBaseWasQueried) {
  auto base = std::make_shared<UncertainGraph>(
      testing::RandomSmallGraph(24, 0.4, 77));
  ASSERT_TRUE(CoinColumns::Worthwhile(*base));
  CoinColumns::Shared(*base);  // a query against the base built its columns

  dyn::DynamicGraph overlay(base);
  const UncertainEdge first = base->edges()[0];
  const UncertainEdge third = base->edges()[3];
  ASSERT_TRUE(overlay.SetProb(first.src, first.dst, 0.123).ok());
  ASSERT_TRUE(overlay.DeleteEdge(third.src, third.dst).ok());
  const dyn::CommitSnapshot snapshot = overlay.Commit();

  const auto seeded = snapshot.graph.derived().Peek<CoinColumns>();
  ASSERT_NE(seeded, nullptr) << "commit did not carry the columns forward";
  ExpectSameColumns(*seeded, CoinColumns::Build(snapshot.graph), "seeded");
}

TEST(CoinColumnsTest, CommitStaysLazyWhenTheBaseWasNeverQueried) {
  auto base = std::make_shared<UncertainGraph>(
      testing::RandomSmallGraph(24, 0.4, 78));
  dyn::DynamicGraph overlay(base);
  const UncertainEdge first = base->edges()[0];
  ASSERT_TRUE(overlay.SetProb(first.src, first.dst, 0.5).ok());
  const dyn::CommitSnapshot snapshot = overlay.Commit();
  EXPECT_EQ(snapshot.graph.derived().Peek<CoinColumns>(), nullptr);
}

}  // namespace
}  // namespace vulnds
