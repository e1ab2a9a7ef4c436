#include "serve/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "store/memory_governor.h"

namespace vulnds::serve {
namespace {

// The byte-aware tests charge each int its own value as its size, so the
// arithmetic is visible in the test body.
LruCache<int>::SizeOf ValueAsBytes() {
  return [](const int& v) { return static_cast<std::size_t>(v); };
}

store::MemoryGovernorOptions Budget(std::size_t bytes) {
  store::MemoryGovernorOptions options;
  options.budget_bytes = bytes;
  return options;
}

// The cache as QueryEngine wires it: every entry charged its value in bytes
// to a governor (budget 0 = accounting only) whose result class sheds from
// this cache, and counted into a registry of its own.
struct GovernedCache {
  explicit GovernedCache(std::size_t capacity, std::size_t budget = 0)
      : governor(Budget(budget)),
        cache(capacity, ValueAsBytes(), governor, registry, "test"),
        shedder(governor.RegisterShedder(
            store::ChargeClass::kResult,
            [this](std::size_t want) { return cache.ShedBytes(want); })) {}
  std::size_t charged() const {
    return governor.charged(store::ChargeClass::kResult);
  }

  store::MemoryGovernor governor;
  obs::MetricRegistry registry;
  LruCache<int> cache;
  store::MemoryGovernor::Registration shedder;
};

TEST(LruCacheTest, GetMissesOnEmpty) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCacheTest, PutThenGet) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  const auto v = cache.Get("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Get("a"), nullptr);  // bump "a"; "b" is now LRU
  cache.Put("c", 3);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutReplacesInPlace) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  cache.Put("a", 9);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("a"), 9);
}

TEST(LruCacheTest, PutOnResidentKeyRefreshesRecency) {
  // Regression: a hot re-inserted entry must be spliced to the front, not
  // left at the tail as the next eviction victim.
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("hot", 1);
  cache.Put("cold", 2);  // recency: cold > hot
  cache.Put("hot", 3);   // re-insert must refresh recency: hot > cold
  cache.Put("new", 4);   // evicts "cold", never "hot"
  EXPECT_EQ(cache.Peek("cold"), nullptr);
  ASSERT_NE(cache.Peek("hot"), nullptr);
  EXPECT_EQ(*cache.Peek("hot"), 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, PeekNeitherCountsNorPromotes) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Peek("a"), nullptr);  // "a" stays LRU despite the peek
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Put("c", 3);  // evicts "a"
  EXPECT_EQ(cache.Peek("a"), nullptr);
  EXPECT_NE(cache.Peek("b"), nullptr);
}

TEST(LruCacheTest, EvictedEntryStaysValidForHolders) {
  GovernedCache governed(1);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 7);
  const auto held = cache.Get("a");
  cache.Put("b", 8);  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 7);  // the shared_ptr keeps the value alive
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  GovernedCache governed(0);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(LruCacheTest, EraseAndClear) {
  GovernedCache governed(4);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  cache.Put("b", 2);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

TEST(LruCacheTest, ByteBudgetEvictsEvenUnderEntryCapacity) {
  GovernedCache governed(10, 100);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 40);
  cache.Put("b", 40);
  EXPECT_EQ(cache.bytes(), 80u);
  cache.Put("c", 40);  // 120 > 100: evict "a" (LRU), leaving 80
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Peek("a"), nullptr);
  EXPECT_NE(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(governed.charged(), 80u);
}

TEST(LruCacheTest, OversizePutRejectedAndResidentValueUntouched) {
  GovernedCache governed(10, 100);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 50);
  cache.Put("b", 30);
  // A value alone above the whole budget must not wipe the cache to fit.
  cache.Put("huge", 101);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.Peek("huge"), nullptr);
  // Rejected replacement leaves the resident value as it was.
  cache.Put("a", 500);
  EXPECT_EQ(cache.stats().rejected_oversize, 2u);
  const auto a = cache.Peek("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 50);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(governed.charged(), 80u);
}

TEST(LruCacheTest, ReplacementRebooksBytesExactly) {
  GovernedCache governed(10, 100);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 60);
  cache.Put("a", 10);  // shrink: 60 credited back, 10 charged
  EXPECT_EQ(cache.bytes(), 10u);
  cache.Put("a", 90);  // grow back within budget
  EXPECT_EQ(cache.bytes(), 90u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.Erase("a");
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(governed.charged(), 0u);
}

TEST(LruCacheTest, HitRate) {
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  EXPECT_EQ(cache.stats().HitRate(), 0.0);
  cache.Put("a", 1);
  cache.Get("a");
  cache.Get("z");
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

// The counters are the registry's series, counted in place: stats() and a
// scrape read the same values, and the entries gauge follows residency
// through puts, evictions, erases, clears and destruction. Two caches of
// one name over one registry share their series.
TEST(LruCacheTest, CountsIntoItsRegistrySeries) {
  store::MemoryGovernor governor;
  obs::MetricRegistry registry;
  const obs::LabelSet label{{"cache", "test"}};
  obs::Gauge* entries =
      registry.GetGauge("vulnds_cache_entries", "", label);
  {
    LruCache<int> cache(2, nullptr, governor, registry, "test");
    cache.Put("a", 1);
    cache.Put("b", 2);
    cache.Put("c", 3);  // evicts "a"
    cache.Get("b");
    cache.Get("a");
    EXPECT_EQ(entries->Value(), 2.0);
    EXPECT_TRUE(cache.Erase("b"));
    EXPECT_EQ(entries->Value(), 1.0);
    EXPECT_EQ(registry.GetCounter("vulnds_cache_hits_total", "", label)
                  ->Value(),
              cache.stats().hits);
    EXPECT_EQ(registry.GetCounter("vulnds_cache_evictions_total", "", label)
                  ->Value(),
              1u);
    LruCache<int> twin(2, nullptr, governor, registry, "test");
    twin.Put("z", 0);
    EXPECT_EQ(entries->Value(), 2.0);
    EXPECT_EQ(twin.stats().inserts, 4u);
    cache.Clear();
    EXPECT_EQ(entries->Value(), 1.0);
  }
  EXPECT_EQ(entries->Value(), 0.0);
  EXPECT_EQ(registry.GetCounter("vulnds_cache_misses_total", "", label)
                ->Value(),
            1u);
}
// ---------------------------------------------------------------------------
// Governed configuration: every test also checks that the governor's books
// match the cache's resident bytes.
// ---------------------------------------------------------------------------

TEST(ShardedLruCacheTest, ZeroCapacityDisables) {
  GovernedCache governed(0);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(governed.charged(), 0u);  // a disabled cache charges nothing
}

TEST(ShardedLruCacheTest, PeekNeitherCountsNorPromotes) {
  // Peek is the engine's in-batch recheck: it must not touch the hit/miss
  // counters (the query already counted its lookup) and must not promote
  // the entry (a recheck is not a use).
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Peek("a"), nullptr);  // "a" stays LRU despite the peek
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Put("c", 3);  // evicts "a", not "b"
  EXPECT_EQ(cache.Peek("a"), nullptr);
  EXPECT_NE(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
  EXPECT_EQ(governed.charged(), 5u);
}

TEST(ShardedLruCacheTest, PutOnResidentKeyRefreshesRecency) {
  // Re-inserting a hot key must move it to the front BEFORE the value is
  // replaced, so it is not the next eviction victim.
  GovernedCache governed(2);
  LruCache<int>& cache = governed.cache;
  cache.Put("hot", 1);
  cache.Put("cold", 2);  // recency: cold > hot
  cache.Put("hot", 3);   // re-insert refreshes recency: hot > cold
  cache.Put("new", 4);   // must evict "cold"
  EXPECT_EQ(cache.Peek("cold"), nullptr);
  ASSERT_NE(cache.Peek("hot"), nullptr);
  EXPECT_EQ(*cache.Peek("hot"), 3);
  EXPECT_NE(cache.Peek("new"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(governed.charged(), 7u);
}

TEST(ShardedLruCacheTest, EvictedEntryStaysValidForHolders) {
  GovernedCache governed(1);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 7);
  const auto held = cache.Get("a");
  cache.Put("b", 8);  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 7);  // the shared_ptr keeps the value alive
  EXPECT_EQ(governed.charged(), 8u);  // ...but it is no longer charged
}

TEST(ShardedLruCacheTest, ClearAndEraseMaintainGlobalSize) {
  GovernedCache governed(8);
  LruCache<int>& cache = governed.cache;
  for (int i = 0; i < 6; ++i) cache.Put("k" + std::to_string(i), i);
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_TRUE(cache.Erase("k3"));
  EXPECT_FALSE(cache.Erase("k3"));
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(governed.charged(), 0u + 1 + 2 + 4 + 5);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(cache.Peek("k" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(governed.charged(), 0u);
}

TEST(ShardedLruCacheTest, ByteBudgetBoundsResidentBytesGlobally) {
  // Entry capacity 10, but three 40-byte entries trip the 100-byte
  // governor budget: the coldest entry is shed.
  GovernedCache governed(10, 100);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 40);
  cache.Put("b", 40);
  EXPECT_EQ(cache.bytes(), 80u);
  cache.Put("c", 40);
  EXPECT_LE(cache.bytes(), 100u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Peek("a"), nullptr);  // "a" was oldest
  EXPECT_NE(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(governed.governor.sheds(store::ChargeClass::kResult), 1u);
}

TEST(ShardedLruCacheTest, OversizePutRejectedAndResidentValueUntouched) {
  // The governor's whole budget is the per-entry ceiling: rejection happens
  // before any charge, so nothing is shed to make room for a value that can
  // never fit.
  GovernedCache governed(10, 100);
  LruCache<int>& cache = governed.cache;
  cache.Put("a", 50);
  cache.Put("b", 30);
  cache.Put("huge", 101);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.Peek("huge"), nullptr);
  cache.Put("a", 500);  // rejected replacement: resident value survives
  EXPECT_EQ(cache.stats().rejected_oversize, 2u);
  const auto a = cache.Peek("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 50);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(governed.governor.sheds(store::ChargeClass::kResult), 0u);
  EXPECT_EQ(governed.charged(), 80u);
}

TEST(ShardedLruCacheTest, ShedBytesEvictsColdestFirstAndReportsFreed) {
  GovernedCache governed(10);
  LruCache<int>& cache = governed.cache;
  cache.Put("cold", 30);
  cache.Put("warm", 30);
  cache.Put("hot", 30);
  ASSERT_NE(cache.Get("cold"), nullptr);  // now "warm" is coldest
  EXPECT_EQ(cache.ShedBytes(1), 30u);     // one eviction satisfies want=1
  EXPECT_EQ(cache.Peek("warm"), nullptr);
  EXPECT_NE(cache.Peek("cold"), nullptr);
  EXPECT_NE(cache.Peek("hot"), nullptr);
  EXPECT_EQ(governed.charged(), 60u);  // the shedder discharged what it freed
  // Asking for more than resident frees what exists and stops.
  EXPECT_EQ(cache.ShedBytes(1000), 60u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.ShedBytes(1), 0u);  // empty cache: nothing to free
  EXPECT_EQ(governed.charged(), 0u);
}

TEST(ShardedLruCacheTest, GovernorBooksMatchResidentBytes) {
  store::MemoryGovernor governor;  // accounting only
  obs::MetricRegistry registry;
  {
    LruCache<int> cache(10, ValueAsBytes(), governor, registry, "test");
    cache.Put("a", 40);
    cache.Put("b", 25);
    EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 65u);
    cache.Put("a", 10);  // replacement recharges, never double-counts
    EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 35u);
    cache.Erase("b");
    EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 10u);
    cache.Put("c", 20);
    cache.Clear();
    EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 0u);
    cache.Put("d", 15);
    EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 15u);
  }
  // Destruction gives every outstanding byte back.
  EXPECT_EQ(governor.charged(store::ChargeClass::kResult), 0u);
}

// Reference model: a plain recency list with the same capacity rule.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}

  void Put(const std::string& key, int value) {
    if (capacity_ == 0) return;
    ++stats_.inserts;
    Remove(key);
    order_.push_front({key, value});
    while (order_.size() > capacity_) {
      order_.pop_back();
      ++stats_.evictions;
    }
  }

  const int* Get(const std::string& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.splice(order_.begin(), order_, it);
        ++stats_.hits;
        return &order_.front().second;
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  const int* Peek(const std::string& key) const {
    for (const auto& entry : order_) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  bool Erase(const std::string& key) { return Remove(key); }

  std::size_t size() const { return order_.size(); }
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& entry : order_) total += static_cast<std::size_t>(entry.second);
    return total;
  }
  const CacheStats& stats() const { return stats_; }

 private:
  bool Remove(const std::string& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::size_t capacity_;
  std::list<std::pair<std::string, int>> order_;  // front = most recent
  CacheStats stats_;
};

TEST(ShardedLruCacheTest, RandomOpSequencesMatchReferenceModel) {
  // Random Put/Get/Erase/Peek streams over a small key universe, checked
  // op by op against the model: residency, values, counters and the
  // governor's books. Capacity small enough that evictions are constant.
  std::vector<std::string> universe;
  for (int i = 0; i < 12; ++i) universe.push_back("k" + std::to_string(i));
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{7}}) {
    GovernedCache governed(capacity);
    LruCache<int>& cache = governed.cache;
    LruModel model(capacity);
    Rng rng(1000 + capacity);
    for (int step = 0; step < 600; ++step) {
      const std::string what =
          "capacity=" + std::to_string(capacity) + " step=" + std::to_string(step);
      const std::string& key = universe[rng.NextBounded(universe.size())];
      switch (rng.NextBounded(4)) {
        case 0: {
          const int value = static_cast<int>(rng.NextBounded(1000));
          cache.Put(key, value);
          model.Put(key, value);
          break;
        }
        case 1: {
          const auto actual = cache.Get(key);
          const int* expected = model.Get(key);
          ASSERT_EQ(expected == nullptr, actual == nullptr) << what;
          if (expected != nullptr) {
            EXPECT_EQ(*expected, *actual) << what;
          }
          break;
        }
        case 2:
          EXPECT_EQ(model.Erase(key), cache.Erase(key)) << what;
          break;
        default:
          ASSERT_EQ(model.Peek(key) == nullptr, cache.Peek(key) == nullptr)
              << what;
          break;
      }
      ASSERT_EQ(model.size(), cache.size()) << what;
      for (const std::string& k : universe) {
        const int* expected = model.Peek(k);
        const auto actual = cache.Peek(k);
        ASSERT_EQ(expected == nullptr, actual == nullptr) << what << " " << k;
        if (expected != nullptr) {
          EXPECT_EQ(*expected, *actual) << what;
        }
      }
      const CacheStats ref = model.stats();
      const CacheStats got = cache.stats();
      EXPECT_EQ(ref.hits, got.hits) << what;
      EXPECT_EQ(ref.misses, got.misses) << what;
      EXPECT_EQ(ref.evictions, got.evictions) << what;
      EXPECT_EQ(ref.inserts, got.inserts) << what;
      EXPECT_EQ(model.bytes(), cache.bytes()) << what;
      EXPECT_EQ(governed.charged(), cache.bytes()) << what;
    }
  }
}

TEST(ShardedLruCacheTest, ConcurrentMixedTrafficStaysWithinCapacity) {
  // TSan-covered hammer: concurrent Get/Put/Erase over overlapping keys,
  // with a budget small enough that Puts also shed through ShedBytes.
  // Exact eviction order under races is unobservable; what must hold is
  // bounded residency and governor books that match the cache.
  constexpr std::size_t kCapacity = 16;
  GovernedCache governed(kCapacity, 400);
  LruCache<int>& cache = governed.cache;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
    threads.emplace_back([&cache, thread_id] {
      Rng rng(thread_id + 1);
      for (int step = 0; step < 2000; ++step) {
        const std::string key = "k" + std::to_string(rng.NextBounded(40));
        switch (rng.NextBounded(3)) {
          case 0:
            cache.Put(key, static_cast<int>(rng.NextBounded(100)));
            break;
          case 1:
            cache.Get(key);
            break;
          default:
            cache.Erase(key);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_EQ(governed.charged(), cache.bytes());
}

}  // namespace
}  // namespace vulnds::serve
