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
// Same-graph query batching. Concurrent cache-missing Detects against one
// snapshot are queued per snapshot uid; the first arrival becomes the batch
// leader, takes the entry's context lock ONCE, and drains every queued job
// (its own plus any that arrive while it runs) before releasing. Followers
// block on a future instead of the mutex, so N concurrent queries cost one
// context-lock acquisition, and a job whose key was computed earlier in the
// same batch is answered from the result cache without re-running. Results
// are bit-identical either way (detection is deterministic given graph +
// canonical options, warm or cold context), so batching is invisible on the
// wire except for `cached=` flips that concurrency makes inherent.

#ifndef VULNDS_SERVE_QUERY_ENGINE_H_
#define VULNDS_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
/// default, and `pool` / `threads` cleared: execution resources are never
/// part of a query's identity — detection results are bit-identical for
/// every thread count, so `detect g 5 threads=4` may legitimately be
/// answered from a cache line computed single-threaded.
DetectorOptions CanonicalizeOptions(DetectorOptions options);

/// Stable cache-key text for a detect request ("method=BSRBK k=5 ...").
std::string CanonicalOptionsKey(const DetectorOptions& options);

struct QueryEngineOptions {
  std::size_t result_cache_capacity = 256;  ///< detect + truth entries (0 = off)
  ThreadPool* pool = nullptr;               ///< sampling parallelism
  /// Shared metric registry; nullptr makes the engine own a private one
  /// (exposed via registry()). Pass a shared registry when several engines
  /// must export through one `metrics` endpoint — but note that two engines
  /// on one registry share every engine-level series.
  obs::MetricRegistry* registry = nullptr;
  /// Slow-query sink; nullptr disables slow-query logging.
  obs::SlowQueryLog* slowlog = nullptr;
  /// Clock behind every recorded wall time (response time=, stage spans,
  /// latency histograms). Null = steady-clock microseconds. Tests inject a
  /// constant to make the protocol's time= token deterministic.
  obs::ClockMicros clock;
  /// Global byte governor for the memory hierarchy. Resolution order: this
  /// pointer, else the catalog's already-bound governor, else an
  /// engine-owned accounting-only governor (budget 0, so `vulnds_store_*`
  /// metrics render on an unconfigured serve). The engine registers its
  /// result caches as ChargeClass::kResult shedders and, when the catalog
  /// has no governor yet, binds the resolved one (with its context and
  /// snapshot shedders) there too. An externally supplied governor must not
  /// shed after the engine is destroyed.
  store::MemoryGovernor* governor = nullptr;
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

/// Aggregate request counters.
struct EngineStats {
  std::size_t detect_queries = 0;
  std::size_t truth_queries = 0;
  /// Detect jobs executed inside another request's context-lock acquisition
  /// (same-graph batching): every job after the first a leader drains.
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
  CacheStats result_cache;  ///< combined detect + truth cache counters
};

class QueryEngine {
 public:
  explicit QueryEngine(GraphCatalog* catalog, QueryEngineOptions options = {});

  /// Unbinds engine-owned runtime (governor, page-in observability) from
  /// the catalog, which may outlive the engine.
  ~QueryEngine();

  /// Runs (or serves from cache) a detection query against graph `name`.
  /// `options.pool` is overridden: with the engine's pool by default, or —
  /// when the request carries `options.threads > 0` — with a pool of that
  /// many workers (constructed once per distinct count and kept for the
  /// engine's lifetime; `threads=1` forces a serial run). Once the engine's
  /// pool budget (kMaxExtraPools / kMaxExtraPoolThreads) is spent, further
  /// counts run on the default pool — results are identical either way.
  Result<DetectResponse> Detect(const std::string& name, DetectorOptions options);

  /// Runs (or serves from cache) a Monte-Carlo ground-truth query.
  Result<TruthResponse> Truth(const std::string& name, std::size_t samples,
                              uint64_t seed);

  GraphCatalog& catalog() { return *catalog_; }
  EngineStats stats() const;

  /// The engine's default sampling pool (may be nullptr). Exposed so a
  /// session front can refuse to run blocking sessions on it (deadlock:
  /// sessions wait on detect fan-out, fan-out waits for pool workers).
  ThreadPool* sampling_pool() const { return pool_; }

  /// The registry every engine metric lives in (never nullptr: either the
  /// one injected via options or the engine-owned default).
  obs::MetricRegistry* registry() { return registry_; }

  /// The resolved byte governor (never nullptr; see QueryEngineOptions).
  store::MemoryGovernor* governor() { return governor_; }

  /// Current time on the engine's clock, in microseconds. The time base of
  /// every response's time= token and of the session-level histograms, so
  /// injecting a constant clock makes whole transcripts deterministic.
  int64_t NowMicros() const {
    return clock_ ? clock_() : obs::SteadyNowMicros();
  }

  /// Copies the mutex-guarded structural counters (catalog, result caches,
  /// context residency) into their registry mirrors. Called by the
  /// `metrics` verb before rendering; cheap enough for any scrape cadence
  /// (one lock per structure, try_lock on contexts).
  void RefreshMetrics();

 private:
  /// One queued cache-missing Detect: execution options (pool resolved),
  /// result-cache key, and the promise its issuer blocks on. The bool is
  /// from_cache: true when answered by the in-batch cache re-check.
  struct DetectJob {
    DetectorOptions options;
    std::string key;
    std::promise<std::pair<Result<DetectionResult>, bool>> promise;
  };

  /// Pending jobs for one snapshot uid plus whether a leader is draining.
  struct GraphBatch {
    std::deque<std::shared_ptr<DetectJob>> queue;
    bool leader_active = false;
  };

  /// Fairness bound on one leadership: after this many drained jobs the
  /// leader takes what is queued, closes the batch (the next arrival leads
  /// a fresh one), finishes its obligations and returns to its session.
  static constexpr std::size_t kMaxBatchJobs = 32;

  /// Drains the batch for `entry` under one context-lock acquisition.
  void RunDetectBatch(const std::shared_ptr<CatalogEntry>& entry);

  /// Re-publishes the entry's context byte charge to the governor after a
  /// batch mutated the context. Must run under the entry's context_mu (it
  /// excludes the context shedder); the detached double-check settles the
  /// race against a concurrent evict/replace/spill of the entry.
  void RechargeContext(const std::shared_ptr<CatalogEntry>& entry);

  /// Executes one job (cache re-check, detection, cache fill) and always
  /// resolves its promise, exceptions included.
  void ExecuteDetectJob(const std::shared_ptr<CatalogEntry>& entry,
                        DetectJob& job);
  /// Caps on the pools built for non-default threads= requests: at most
  /// kMaxExtraPools distinct counts AND at most kMaxExtraPoolThreads OS
  /// threads summed across them (pools live for the engine's lifetime
  /// because in-flight requests may hold them). Requests past either
  /// budget — or hitting a pool-creation failure — fall back to the
  /// default pool, so a client cycling threads= values cannot grow the
  /// process's thread count without bound.
  static constexpr std::size_t kMaxExtraPools = 8;
  static constexpr std::size_t kMaxExtraPoolThreads = 128;

  /// The pool serving requests that ask for `threads` workers (0 = the
  /// engine default). Extra pools are created lazily, one per distinct
  /// count up to kMaxExtraPools, and live for the engine's lifetime.
  ThreadPool* PoolFor(std::size_t threads);

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

  // Observability plumbing. Counters/histograms live in the registry and
  // are resolved once here; recording through them is lock-free.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_;
  obs::SlowQueryLog* slowlog_;
  obs::ClockMicros clock_;

  // Byte-governance plumbing. Declared before the caches: the caches hold
  // the governor pointer and discharge through it on destruction, so the
  // governor must be constructed first and destroyed last. The flag
  // records whether this engine bound the governor into the catalog (and
  // must unbind it before dying).
  std::unique_ptr<store::MemoryGovernor> owned_governor_;
  store::MemoryGovernor* governor_;
  bool bound_catalog_governor_ = false;

  std::mutex pools_mu_;  // guards extra_pools_ and extra_pool_threads_
  std::map<std::size_t, std::unique_ptr<ThreadPool>> extra_pools_;
  std::size_t extra_pool_threads_ = 0;  // sum of extra_pools_ widths

  // Internally synchronized (one mutex each); no engine-wide cache lock
  // exists. Request counters and wave telemetry are registry-backed
  // lock-free counters — each individually exact, read as a moment-in-time
  // snapshot by stats() (which stays byte-compatible: the counters
  // increment at exactly the points the former atomics did).
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

  // Same-graph batching state, keyed by snapshot uid. Lock order: an
  // entry's context_mu may be held while taking batch_mu_ or a result-cache
  // mutex (the leader does both); never the reverse.
  mutable std::mutex batch_mu_;
  std::unordered_map<uint64_t, GraphBatch> batches_;
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_QUERY_ENGINE_H_
