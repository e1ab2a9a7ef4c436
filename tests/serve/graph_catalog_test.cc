#include "serve/graph_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/graph_io.h"
#include "testing/snapshot_bytes.h"
#include "testing/test_graphs.h"

namespace vulnds::serve {
namespace {

using testing::WriteTempGraph;

TEST(GraphCatalogTest, LoadTextAndBinary) {
  GraphCatalog catalog;
  const UncertainGraph g = testing::PaperExampleGraph(0.2);
  const std::string text = WriteTempGraph(g, "cat_a.graph", GraphFileFormat::kText);
  const std::string bin = WriteTempGraph(g, "cat_b.snap", GraphFileFormat::kBinary);
  ASSERT_TRUE(catalog.Load("a", text).ok());
  ASSERT_TRUE(catalog.Load("b", bin).ok());
  EXPECT_EQ(catalog.size(), 2u);
  const auto a = catalog.Get("a");
  const auto b = catalog.Get("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->graph.num_nodes(), b->graph.num_nodes());
  EXPECT_EQ(a->graph.num_edges(), b->graph.num_edges());
}

TEST(GraphCatalogTest, LoadMissingFileFails) {
  GraphCatalog catalog;
  EXPECT_EQ(catalog.Load("x", "/nonexistent/g.graph").code(),
            StatusCode::kIOError);
  EXPECT_EQ(catalog.size(), 0u);
}

TEST(GraphCatalogTest, GetUnknownReturnsNull) {
  GraphCatalog catalog;
  EXPECT_EQ(catalog.Get("nope"), nullptr);
  EXPECT_EQ(catalog.stats().misses, 1u);
}

TEST(GraphCatalogTest, EvictAndReload) {
  GraphCatalog catalog;
  const UncertainGraph g = testing::ChainGraph(0.3, 0.6);
  const std::string path = WriteTempGraph(g, "cat_c.snap", GraphFileFormat::kBinary);
  ASSERT_TRUE(catalog.Load("c", path).ok());
  EXPECT_TRUE(catalog.Evict("c"));
  EXPECT_FALSE(catalog.Evict("c"));
  EXPECT_EQ(catalog.Get("c"), nullptr);
  ASSERT_TRUE(catalog.Load("c", path).ok());
  EXPECT_NE(catalog.Get("c"), nullptr);
  EXPECT_EQ(catalog.stats().evictions, 1u);
}

TEST(GraphCatalogTest, EvictedEntryStaysAliveForHolders) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("m", testing::PaperExampleGraph(0.2)).ok());
  const auto held = catalog.Get("m");
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(catalog.Evict("m"));
  // The in-flight reference still works after eviction.
  EXPECT_EQ(held->graph.num_nodes(), 5u);
}

TEST(GraphCatalogTest, ReloadReplacesEntryAndDropsContext) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("r", testing::ChainGraph(0.3, 0.6)).ok());
  {
    const auto entry = catalog.Get("r");
    entry->context.lower_bounds[2] = {0.1, 0.2, 0.3};
  }
  ASSERT_TRUE(catalog.Put("r", testing::PaperExampleGraph(0.2)).ok());
  const auto entry = catalog.Get("r");
  EXPECT_EQ(entry->graph.num_nodes(), 5u);
  // A reload must not leak derived state from the old graph.
  EXPECT_TRUE(entry->context.lower_bounds.empty());
  EXPECT_EQ(catalog.stats().reloads, 1u);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(GraphCatalogTest, NamesMostRecentFirst) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("a", testing::ChainGraph(0.3, 0.6)).ok());
  ASSERT_TRUE(catalog.Put("b", testing::ChainGraph(0.3, 0.6)).ok());
  ASSERT_NE(catalog.Get("a"), nullptr);
  const std::vector<std::string> names = catalog.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(GraphCatalogTest, EmptyNameRejected) {
  GraphCatalog catalog;
  EXPECT_EQ(catalog.Put("", testing::ChainGraph(0.3, 0.6)).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Byte accounting and LRU order.
// ---------------------------------------------------------------------------

TEST(ShardedCatalogTest, EvictionAccountingRemovesBytes) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Put("a", testing::ChainGraph(0.3, 0.6)).ok());
  ASSERT_TRUE(catalog.Put("b", testing::RandomSmallGraph(20, 0.2, 5)).ok());
  const std::size_t both = catalog.resident_bytes();
  ASSERT_TRUE(catalog.Evict("b"));
  EXPECT_EQ(catalog.resident_bytes(),
            both - EstimateGraphBytes(testing::RandomSmallGraph(20, 0.2, 5)));
  ASSERT_TRUE(catalog.Evict("a"));
  EXPECT_EQ(catalog.resident_bytes(), 0u);
  EXPECT_EQ(catalog.size(), 0u);
}

// Reference model: a plain LRU list. The catalog must match it operation
// for operation; its cold end is the order ShedSnapshots walks.
class LruModel {
 public:
  void Put(const std::string& name) {
    Remove(name);
    order_.push_front(name);
  }

  bool Get(const std::string& name) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (*it == name) {
        order_.erase(it);
        order_.push_front(name);
        return true;
      }
    }
    return false;
  }

  bool Evict(const std::string& name) {
    const std::size_t before = order_.size();
    Remove(name);
    return order_.size() != before;
  }

  std::vector<std::string> Names() const {
    return std::vector<std::string>(order_.begin(), order_.end());
  }

 private:
  void Remove(const std::string& name) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (*it == name) {
        order_.erase(it);
        return;
      }
    }
  }

  std::deque<std::string> order_;  // front = MRU
};

TEST(ShardedCatalogTest, PropertyMatchesGlobalLruModelAcrossShards) {
  // Random Put/Get/Evict sequences with mixed graph sizes; after every
  // operation the resident set AND the MRU order must match the LRU
  // reference model.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    GraphCatalog catalog;
    LruModel model;
    Rng rng(seed);
    for (int step = 0; step < 300; ++step) {
      const std::string name =
          "g" + std::to_string(rng.NextU64() % 9);  // 9 hot names
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        const bool big = rng.NextDouble() < 0.4;
        ASSERT_TRUE(catalog
                        .Put(name, big ? testing::RandomSmallGraph(25, 0.25, 9)
                                       : testing::ChainGraph(0.3, 0.6))
                        .ok());
        model.Put(name);
      } else if (roll < 0.85) {
        EXPECT_EQ(catalog.Get(name) != nullptr, model.Get(name))
            << "step " << step << " name " << name;
      } else {
        EXPECT_EQ(catalog.Evict(name), model.Evict(name))
            << "step " << step << " name " << name;
      }
      ASSERT_EQ(catalog.Names(), model.Names())
          << "step " << step << " seed " << seed;
    }
  }
}

TEST(ShardedCatalogTest, ConcurrentLoadGetEvictSmoke) {
  // Hammer the catalog from several threads; correctness here is "no crash,
  // no torn state" (the TSan CI job runs this test under ThreadSanitizer),
  // plus conservation: every Get either misses or returns a usable entry.
  GraphCatalog catalog;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&catalog, t] {
      Rng rng(1000 + t);
      for (int step = 0; step < 200; ++step) {
        const std::string name = "g" + std::to_string(rng.NextU64() % 10);
        const double roll = rng.NextDouble();
        if (roll < 0.4) {
          ASSERT_TRUE(catalog.Put(name, testing::ChainGraph(0.3, 0.6)).ok());
        } else if (roll < 0.9) {
          const auto entry = catalog.Get(name);
          if (entry != nullptr) {
            ASSERT_EQ(entry->graph.num_nodes(), 3u);
          }
        } else {
          catalog.Evict(name);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(catalog.size(), 10u);
  const CatalogStats stats = catalog.stats();
  EXPECT_EQ(stats.hits + stats.misses >= 1u, true);
}

}  // namespace
}  // namespace vulnds::serve
