// QueryEngine: executes detection / ground-truth requests against catalog
// graphs with result caching and warm per-graph state.
//
// Layered reuse, fastest first:
//   1. the LRU result cache, keyed by (graph name, snapshot uid,
//      canonicalized options) — an identical repeated query is answered
//      without touching the graph, bit-identical to the original answer;
//      the uid scopes entries to one loaded snapshot, so reloading or
//      evicting a name can never serve results from the old graph;
//   2. the entry's DetectionContext — a near-identical query (same graph,
//      different k / method / seed) reuses the deterministic intermediates
//      it shares with earlier queries (bounds, reductions, sample orders);
//   3. a cold run on the shared ThreadPool.
// Canonicalization zeroes the DetectorOptions fields the chosen method never
// reads (e.g. `bk` for BSR, `naive_samples` for everything but N), so
// requests that differ only in irrelevant knobs share a cache line.
//
// Detect/Truth are thread-safe; per-graph context use is serialized per
// entry, so queries against different graphs never contend. Each result
// cache is one LruCache behind one mutex: a cached-query hit holds it only
// for the lookup (the value is shared, and copied outside the lock), which
// measured no slower than a sharded cache under concurrent cached traffic.
//
// Same-graph ordering. A cache-missing Detect takes its entry's context_mu
// for the whole cold run, re-checks the result cache under it and only then
// computes, so concurrent identical queries compute once: the first runs,
// the others wait on the mutex and are answered by the re-check. That one
// mutex per graph context is the only same-graph ordering. Results are
// bit-identical either way (detection is deterministic given graph +
// canonical options, warm or cold context), so the lock is invisible on the
// wire except for `cached=` flips that concurrency makes inherent. Lock
// order: context_mu may be held while taking a result-cache mutex (the
// re-check and the insert); never the reverse.

#ifndef VULNDS_SERVE_QUERY_ENGINE_H_
#define VULNDS_SERVE_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/slow_query_log.h"
#include "serve/graph_catalog.h"
#include "serve/lru_cache.h"
#include "store/memory_governor.h"
#include "vulnds/detector.h"
#include "vulnds/ground_truth.h"

namespace vulnds::serve {

/// Returns `options` with every field the method ignores reset to its
/// default, and `pool` cleared: execution resources are never part of a
/// query's identity — detection results are bit-identical for every thread
/// count, so engines with different pool widths compute the same cache line.
DetectorOptions CanonicalizeOptions(DetectorOptions options);

/// Stable cache-key text for a detect request ("method=BSRBK k=5 ...").
std::string CanonicalOptionsKey(const DetectorOptions& options);

struct QueryEngineOptions {
  /// Entries per result cache (0 = off). The detect and the truth cache
  /// each hold up to this many, so up to twice it in all.
  std::size_t result_cache_capacity = 256;
  ThreadPool* pool = nullptr;  ///< sampling parallelism
  /// Slow-query sink; nullptr disables slow-query logging.
  obs::SlowQueryLog* slowlog = nullptr;
  /// Clock behind every recorded wall time (response time=, stage spans,
  /// latency histograms). Null = steady-clock microseconds. Tests inject a
  /// constant to make the protocol's time= token deterministic.
  obs::ClockMicros clock;
};

/// Outcome of QueryEngine::Detect.
struct DetectResponse {
  DetectionResult result;
  bool from_cache = false;
  double seconds = 0.0;  ///< wall time spent serving this request
};

/// Outcome of QueryEngine::Truth.
struct TruthResponse {
  GroundTruth truth;
  bool from_cache = false;
  double seconds = 0.0;
};

/// Aggregate request counters, read from their registry series. Engines
/// over one catalog share its registry and so these series: each engine's
/// stats() reads what all of them counted.
struct EngineStats {
  std::size_t detect_queries = 0;
  std::size_t truth_queries = 0;
  /// Cold detects that found their graph's context held by another detect
  /// and waited for it (their try_lock failed).
  std::size_t batched_queries = 0;
  /// BSRBK wave-schedule telemetry summed over executed (non-cached)
  /// detects: worlds materialized past the early stop, and parallel waves
  /// dispatched. The serving-side measure of sampling waste the adaptive
  /// scheduler exists to cut.
  std::size_t worlds_wasted = 0;
  std::size_t waves_issued = 0;
  /// Coin-kernel telemetry summed over executed detects: coin slots
  /// evaluated in full vector lanes (padding included) vs one at a time.
  /// Like the wave telemetry, this measures cost, never answers.
  std::size_t simd_batched_coins = 0;
  std::size_t simd_tail_coins = 0;
  CacheStats result_cache;  ///< detect + truth cache counters, summed
};

/// The engine's result caches charge through the catalog's governor and
/// register with it as ChargeClass::kResult shedders for the engine's
/// lifetime; the engine's metrics count into the catalog's registry. The
/// catalog must outlive the engine.
class QueryEngine {
 public:
  explicit QueryEngine(GraphCatalog* catalog, QueryEngineOptions options = {});

  /// Runs (or serves from cache) a detection query against graph `name`.
  /// `options.pool` is overridden with the engine's pool.
  Result<DetectResponse> Detect(const std::string& name, DetectorOptions options);

  /// Runs (or serves from cache) a Monte-Carlo ground-truth query.
  Result<TruthResponse> Truth(const std::string& name, std::size_t samples,
                              uint64_t seed);

  GraphCatalog& catalog() { return *catalog_; }
  EngineStats stats() const;

  /// The catalog's registry, which every engine metric lives in.
  obs::MetricRegistry* registry() { return catalog_->registry(); }

  /// Current time on the engine's clock, in microseconds. The time base of
  /// every response's time= token and of the session-level histograms, so
  /// injecting a constant clock makes whole transcripts deterministic.
  int64_t NowMicros() const {
    return clock_ ? clock_() : obs::SteadyNowMicros();
  }

 private:
  /// Re-publishes the entry's context byte charge to the governor after a
  /// detect mutated the context. Must run under the entry's context_mu (it
  /// excludes the context shedder); the detached double-check settles the
  /// race against a concurrent evict/replace/spill of the entry.
  void RechargeContext(const std::shared_ptr<CatalogEntry>& entry);

  /// Completes a finished detect/truth request: stamps response seconds,
  /// feeds the latency and per-stage histograms, and offers the query to
  /// the slow-query log. `verb` indexes request_micros_ (0 = detect,
  /// 1 = truth); `cache_key` is the full result-cache key (the canonical
  /// options are its part after '|').
  void FinishQuery(int verb, const std::string& name,
                   const std::string& cache_key, const obs::QueryTrace& trace,
                   int64_t start_micros, bool cached, double* seconds);

  /// Resolves the per-stage histogram for `stage`: the well-known pipeline
  /// stages are pre-resolved at construction (no registry mutex on the
  /// request path); anything else falls through to the registry.
  obs::Histogram* StageHistogram(const std::string& stage);

  GraphCatalog* catalog_;
  ThreadPool* pool_;

  // Observability plumbing. Counters/histograms live in the catalog's
  // registry and are resolved once here; recording through them is
  // lock-free.
  obs::SlowQueryLog* slowlog_;
  obs::ClockMicros clock_;
  store::MemoryGovernor* const governor_;  // the catalog's

  // Internally synchronized (one mutex each); no engine-wide cache lock
  // exists. Request counters and wave telemetry are registry-backed
  // lock-free counters — each individually exact, read as a moment-in-time
  // snapshot by stats().
  LruCache<DetectionResult> detect_cache_;
  LruCache<GroundTruth> truth_cache_;
  obs::Counter* detect_queries_;
  obs::Counter* truth_queries_;
  obs::Counter* worlds_wasted_;
  obs::Counter* waves_issued_;
  obs::Counter* simd_batched_coins_;
  obs::Counter* simd_tail_coins_;
  obs::Counter* batched_queries_;
  // Latency histograms: [verb][cached], verb 0 = detect, 1 = truth.
  obs::Histogram* request_micros_[2][2];
  // Pre-resolved per-stage histograms for the pipeline's own stage names.
  static constexpr std::size_t kKnownStages = 7;
  std::pair<const char*, obs::Histogram*> stage_micros_[kKnownStages];
  // The caches' governor shedders. Declared after the caches, so they are
  // unregistered before the caches they shed from are destroyed.
  store::MemoryGovernor::Registration detect_shedder_;
  store::MemoryGovernor::Registration truth_shedder_;
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_QUERY_ENGINE_H_
