// String-keyed, thread-safe LRU cache for serving-layer result caching.
//
// One mutex guards one list + map: Get/Peek/Put/Erase each take it once.
// The serving workloads measured no difference between this and a
// key-hashed 8-shard variant (the README's "Concurrent serving" numbers),
// so the cache stays a single LRU.
//
// Byte awareness: the cache charges through the store::MemoryGovernor it is
// built with. Each entry is charged its SizeOf (0 without one) at insert
// under ChargeClass::kResult and credited back when it leaves; ShedBytes()
// is the governor's shedder for that class, evicting the coldest entries
// on demand when any pool pushes the process over its global budget. A
// single entry larger than the governor's whole budget is rejected
// outright (counted in rejected_oversize) rather than shedding everything
// else and inserting anyway.
//
// Counters live in the obs::MetricRegistry the cache is built with and are
// counted in place: hits, misses, evictions and inserts as the
// vulnds_cache_*_total{cache=<name>} series, the entry count as the
// vulnds_cache_entries{cache=<name>} gauge, and oversize rejections as the
// one unlabeled vulnds_store_rejected_oversize_total series. Caches over
// one registry with the same name share their series (and every cache of
// the registry shares the rejection series), so stats() reads their sum.
//
// Values are held behind shared_ptr<const V>, so a cached entry handed to a
// caller stays valid even if it is evicted (or the cache destroyed) while
// the caller still uses it. Capacity 0 disables caching entirely: every Get
// misses and Put is a no-op, which gives benchmarks a zero-cost "cache off"
// switch.

#ifndef VULNDS_SERVE_LRU_CACHE_H_
#define VULNDS_SERVE_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "store/memory_governor.h"

namespace vulnds::serve {

/// Hit/miss/eviction counters read from the registry; cheap to copy.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t inserts = 0;
  /// Puts refused, entry > governor budget: one series per registry.
  std::size_t rejected_oversize = 0;

  /// Hits over lookups, 0 when nothing was looked up.
  double HitRate() const {
    const std::size_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

template <typename V>
class LruCache {
 public:
  /// Charged size of a value, in bytes. Must be stable for a given value:
  /// it is computed once at Put and credited back verbatim at eviction.
  using SizeOf = std::function<std::size_t(const V&)>;

  /// Creates a cache holding at most `capacity` entries (0 disables) that
  /// charges each entry's `size_of` bytes (0 without one) to `governor`
  /// under ChargeClass::kResult and counts into `registry` as cache=`name`.
  /// The governor and the registry must outlive the cache.
  LruCache(std::size_t capacity, SizeOf size_of,
           store::MemoryGovernor& governor, obs::MetricRegistry& registry,
           const std::string& name)
      : capacity_(capacity),
        size_of_(std::move(size_of)),
        governor_(governor),
        hits_(registry.GetCounter("vulnds_cache_hits_total",
                                  "Result-cache hits", {{"cache", name}})),
        misses_(registry.GetCounter("vulnds_cache_misses_total",
                                    "Result-cache misses", {{"cache", name}})),
        evictions_(registry.GetCounter("vulnds_cache_evictions_total",
                                       "Result-cache evictions",
                                       {{"cache", name}})),
        inserts_(registry.GetCounter("vulnds_cache_inserts_total",
                                     "Result-cache inserts", {{"cache", name}})),
        rejected_oversize_(registry.GetCounter(
            "vulnds_store_rejected_oversize_total",
            "Cache inserts refused because one entry exceeded the whole byte "
            "budget")),
        entries_(registry.GetGauge("vulnds_cache_entries",
                                   "Resident result-cache entries",
                                   {{"cache", name}})) {}

  ~LruCache() {
    // Give the governor its bytes back; entries still referenced by
    // callers survive via their shared_ptr but are no longer "cached".
    Clear();
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and bumps its recency, or nullptr on miss.
  std::shared_ptr<const V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_->Increment();
      return nullptr;
    }
    hits_->Increment();
    order_.splice(order_.begin(), order_, it->second);
    return it->second->value;
  }

  /// Returns the cached value without touching counters or recency. For
  /// re-checks that already counted their lookup (the query engine's
  /// recheck under the context lock): counting again would double-book the
  /// hit rate.
  std::shared_ptr<const V> Peek(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->value;
  }

  /// Inserts (or replaces) `key`, evicting the least-recently-used entry
  /// while over the entry capacity. A resident key's recency is refreshed
  /// FIRST, then its value replaced: a hot re-inserted entry moves to the
  /// front and is never left at the tail as the next eviction victim. A
  /// value alone bigger than the governor's budget is rejected (the
  /// resident value, if any, is left untouched) — see
  /// stats().rejected_oversize.
  void Put(const std::string& key, V value) {
    if (capacity_ == 0) return;
    const std::size_t new_bytes = size_of_ ? size_of_(value) : 0;
    if (governor_.Oversize(new_bytes)) {
      rejected_oversize_->Increment();
      return;
    }
    // Charge before the entry becomes visible, and outside mu_: Charge may
    // shed, and shedding may call our own ShedBytes. Charging first also
    // means no concurrent shed can discharge these bytes before they were
    // charged. Bytes that leave below (replaced or evicted) are discharged
    // under mu_, which is safe: Discharge never sheds or locks.
    governor_.Charge(store::ChargeClass::kResult, new_bytes);
    auto shared = std::make_shared<const V>(std::move(value));
    std::lock_guard<std::mutex> lock(mu_);
    inserts_->Increment();
    const auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      Release(it->second->bytes);
      it->second->value = std::move(shared);
      it->second->bytes = new_bytes;
    } else {
      order_.emplace_front(Entry{key, std::move(shared), new_bytes});
      index_[key] = order_.begin();
      entries_->Add(1);
    }
    bytes_ += new_bytes;
    while (index_.size() > capacity_) EvictColdestLocked();
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    Release(it->second->bytes);
    order_.erase(it->second);
    index_.erase(it);
    entries_->Add(-1);
    return true;
  }

  /// Drops every entry (counters are kept).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    Release(bytes_);
    entries_->Add(-static_cast<double>(index_.size()));
    order_.clear();
    index_.clear();
  }

  /// Evicts the coldest entries until at least `want` charged bytes are
  /// freed (or the cache is empty); returns the bytes actually freed. This
  /// is the cache's store::MemoryGovernor shedder: freed bytes are
  /// discharged here, so the registered lambda just forwards the result.
  std::size_t ShedBytes(std::size_t want) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t freed = 0;
    while (freed < want && !order_.empty()) freed += EvictColdestLocked();
    return freed;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }
  std::size_t capacity() const { return capacity_; }
  /// Resident SizeOf bytes.
  std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_->Value();
    s.misses = misses_->Value();
    s.evictions = evictions_->Value();
    s.inserts = inserts_->Value();
    s.rejected_oversize = rejected_oversize_->Value();
    return s;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    std::size_t bytes = 0;  ///< SizeOf charge, credited back at eviction
  };

  // Takes `bytes` off the resident total and the governor. Caller holds mu_.
  void Release(std::size_t bytes) {
    bytes_ -= bytes;
    governor_.Discharge(store::ChargeClass::kResult, bytes);
  }

  // Evicts the list tail; returns its byte charge. Caller holds mu_ and
  // guarantees the cache is non-empty.
  std::size_t EvictColdestLocked() {
    const std::size_t bytes = order_.back().bytes;
    evictions_->Increment();
    entries_->Add(-1);
    Release(bytes);
    index_.erase(order_.back().key);
    order_.pop_back();
    return bytes;
  }

  const std::size_t capacity_;
  const SizeOf size_of_;
  store::MemoryGovernor& governor_;
  obs::Counter* const hits_;
  obs::Counter* const misses_;
  obs::Counter* const evictions_;
  obs::Counter* const inserts_;
  obs::Counter* const rejected_oversize_;
  obs::Gauge* const entries_;
  mutable std::mutex mu_;
  std::size_t bytes_ = 0;   // guarded by mu_
  std::list<Entry> order_;  // front = most recent; guarded by mu_
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_LRU_CACHE_H_
