#include "serve/query_engine.h"

#include <mutex>
#include <utility>

#include "common/parse.h"
#include "simd/dispatch.h"

namespace vulnds::serve {

DetectorOptions CanonicalizeOptions(DetectorOptions o) {
  const DetectorOptions defaults;
  o.pool = nullptr;  // determinism makes the pool a pure execution knob
  // The kernel tier too: every tier computes bit-identical results (the
  // simd/coin_kernels.h contract), so `simd=scalar` may be answered from a
  // cache line computed with AVX2 (and vice versa).
  o.simd_mode = defaults.simd_mode;
  // Observability never shapes an answer: a traced query and an untraced
  // one share a cache line.
  o.trace = nullptr;
  switch (o.method) {
    case Method::kNaive:
      // Fixed budget: the (eps, delta) machinery and bounds are never read.
      o.eps = defaults.eps;
      o.delta = defaults.delta;
      o.bound_order = defaults.bound_order;
      o.bk = defaults.bk;
      break;
    case Method::kSampleNaive:
      o.naive_samples = defaults.naive_samples;
      o.bound_order = defaults.bound_order;
      o.bk = defaults.bk;
      break;
    case Method::kSampleReverse:
    case Method::kBsr:
      o.naive_samples = defaults.naive_samples;
      o.bk = defaults.bk;
      break;
    case Method::kBsrbk:
      o.naive_samples = defaults.naive_samples;
      break;
  }
  return o;
}

std::string CanonicalOptionsKey(const DetectorOptions& options) {
  const DetectorOptions o = CanonicalizeOptions(options);
  std::string key;
  key += "method=" + MethodName(o.method);
  key += " k=" + std::to_string(o.k);
  key += " eps=";
  AppendRoundTrip(&key, o.eps);
  key += " delta=";
  AppendRoundTrip(&key, o.delta);
  key += " naive_samples=" + std::to_string(o.naive_samples);
  key += " bound_order=" + std::to_string(o.bound_order);
  key += " bk=" + std::to_string(o.bk);
  key += " seed=" + std::to_string(o.seed);
  return key;
}

namespace {

constexpr const char* kRequestsHelp =
    "Requests received per verb (cache hits included)";
constexpr const char* kRequestMicrosHelp =
    "End-to-end request latency in microseconds, by verb and cache outcome";
constexpr const char* kStageMicrosHelp =
    "Per-stage wall time of executed queries in microseconds";

// Charged size of one cached detection result: the struct plus its ranking
// and score payloads. Deterministic in the result's shape, so byte-budget
// tests can predict cache behavior exactly.
std::size_t ApproxDetectionResultBytes(const DetectionResult& result) {
  return sizeof(DetectionResult) + result.topk.size() * sizeof(result.topk[0]) +
         result.scores.size() * sizeof(double);
}

// Charged size of one cached ground truth: per-node probability vector —
// this is the payload that differs by orders of magnitude across graphs and
// motivated byte-charging the result cache in the first place.
std::size_t ApproxGroundTruthBytes(const GroundTruth& truth) {
  return sizeof(GroundTruth) + truth.probabilities.size() * sizeof(double);
}

}  // namespace

QueryEngine::QueryEngine(GraphCatalog* catalog, QueryEngineOptions options)
    : catalog_(catalog),
      pool_(options.pool),
      slowlog_(options.slowlog),
      clock_(std::move(options.clock)),
      governor_(catalog->governor()),
      // One memory hierarchy: the result caches charge through the governor
      // the catalog charges snapshots and contexts through, and that
      // governor can shed result bytes when OTHER classes overflow.
      detect_cache_(options.result_cache_capacity, ApproxDetectionResultBytes,
                    *governor_, *catalog->registry(), "detect"),
      truth_cache_(options.result_cache_capacity, ApproxGroundTruthBytes,
                   *governor_, *catalog->registry(), "truth"),
      detect_shedder_(governor_->RegisterShedder(
          store::ChargeClass::kResult,
          [this](std::size_t want) { return detect_cache_.ShedBytes(want); })),
      truth_shedder_(governor_->RegisterShedder(
          store::ChargeClass::kResult,
          [this](std::size_t want) { return truth_cache_.ShedBytes(want); })) {
  obs::MetricRegistry* registry = catalog_->registry();
  detect_queries_ = registry->GetCounter("vulnds_engine_requests_total",
                                          kRequestsHelp, {{"verb", "detect"}});
  truth_queries_ = registry->GetCounter("vulnds_engine_requests_total",
                                         kRequestsHelp, {{"verb", "truth"}});
  batched_queries_ = registry->GetCounter(
      "vulnds_engine_batched_queries_total",
      "Cold detects that waited for another detect holding their graph's "
      "context");
  worlds_wasted_ = registry->GetCounter(
      "vulnds_engine_worlds_wasted_total",
      "Worlds materialized past the bottom-k early stop, executed runs only");
  waves_issued_ = registry->GetCounter(
      "vulnds_engine_waves_issued_total",
      "Parallel sampling waves dispatched, executed runs only");
  simd_batched_coins_ = registry->GetCounter(
      "vulnds_simd_batched_coins_total",
      "Coin slots evaluated in full vector lanes (padding included), "
      "executed runs only");
  simd_tail_coins_ = registry->GetCounter(
      "vulnds_simd_scalar_tail_coins_total",
      "Coin slots evaluated one at a time outside a full lane, "
      "executed runs only");
  // The process-default kernel tier as a numeric gauge (0 = scalar,
  // 1 = avx2, 2 = avx512): scrape-friendly, and the label carries the name.
  // Set once — the default is resolved once per process (VULNDS_SIMD env,
  // else CPUID) and per-query overrides never change it.
  registry
      ->GetGauge("vulnds_simd_tier",
                 "Process-default SIMD kernel tier "
                 "(0=scalar, 1=avx2, 2=avx512)",
                 {{"tier", simd::SimdTierName(simd::DefaultTier())}})
      ->Set(static_cast<double>(simd::DefaultTier()));
  const std::vector<double>& buckets = obs::LatencyBucketsMicros();
  const char* verbs[2] = {"detect", "truth"};
  for (int v = 0; v < 2; ++v) {
    for (int c = 0; c < 2; ++c) {
      request_micros_[v][c] = registry->GetHistogram(
          "vulnds_engine_request_micros", kRequestMicrosHelp, buckets,
          {{"verb", verbs[v]}, {"cached", c == 0 ? "0" : "1"}});
    }
  }
  const char* stages[kKnownStages] = {"cache_lookup", "cache_check", "bounds",
                                      "reduce",       "sampling",    "compute",
                                      "cache_insert"};
  for (std::size_t s = 0; s < kKnownStages; ++s) {
    stage_micros_[s] = {stages[s],
                        registry->GetHistogram("vulnds_engine_stage_micros",
                                                kStageMicrosHelp, buckets,
                                                {{"stage", stages[s]}})};
  }
}

obs::Histogram* QueryEngine::StageHistogram(const std::string& stage) {
  for (const auto& [name, histogram] : stage_micros_) {
    if (stage == name) return histogram;
  }
  // A stage name the constructor did not anticipate (future pipeline work):
  // registry get-or-create, off the lock-free path but correct.
  return registry()->GetHistogram("vulnds_engine_stage_micros", kStageMicrosHelp,
                                 obs::LatencyBucketsMicros(),
                                 {{"stage", stage}});
}

void QueryEngine::FinishQuery(int verb, const std::string& name,
                              const std::string& cache_key,
                              const obs::QueryTrace& trace,
                              int64_t start_micros, bool cached,
                              double* seconds) {
  const int64_t total = NowMicros() - start_micros;
  *seconds = static_cast<double>(total) * 1e-6;
  request_micros_[verb][cached ? 1 : 0]->Observe(static_cast<double>(total));
  for (const obs::StageSpan& span : trace.stages()) {
    StageHistogram(span.name)->Observe(static_cast<double>(span.micros));
  }
  if (slowlog_ != nullptr && slowlog_->threshold_micros() >= 0 &&
      total >= slowlog_->threshold_micros()) {
    obs::SlowQueryRecord record;
    record.verb = verb == 0 ? "detect" : "truth";
    record.graph = name;
    const std::size_t sep = cache_key.find('|');
    record.options =
        sep == std::string::npos ? cache_key : cache_key.substr(sep + 1);
    record.total_micros = total;
    record.cached = cached;
    record.trace = &trace;
    slowlog_->MaybeLog(record);
  }
}

Result<DetectResponse> QueryEngine::Detect(const std::string& name,
                                           DetectorOptions options) {
  const int64_t start = NowMicros();
  obs::QueryTrace trace(clock_);
  trace.BeginStage("cache_lookup");
  // GetOrLoad pages a spilled snapshot back in transparently; the pin then
  // keeps it resident (never re-spilled) for this query's whole flight,
  // including the wait on the context lock.
  Result<std::shared_ptr<CatalogEntry>> resolved = catalog_->GetOrLoad(name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<CatalogEntry> entry = resolved.MoveValue();
  if (entry == nullptr) {
    return Status::NotFound("graph '" + name + "' is not in the catalog");
  }
  ScopedEntryPin pin(entry);
  // Validate before the cache lookup so an invalid request fails the same
  // way whether or not a canonically-equal valid query is already cached.
  VULNDS_RETURN_NOT_OK(ValidateDetectorOptions(entry->graph, options));

  // Keyed by the entry uid, not just the name: a reloaded or evicted graph
  // gets a fresh uid, so results computed on the old snapshot cannot be
  // served for the new one (stale keys age out of the LRU).
  const std::string key = name + "#" + std::to_string(entry->uid) + "|" +
                          CanonicalOptionsKey(options);
  detect_queries_->Increment();
  DetectResponse response;
  std::shared_ptr<const DetectionResult> cached = detect_cache_.Get(key);
  trace.EndStage();
  if (cached == nullptr) {
    // Cold: the context lock orders same-graph detects. Under it the cache
    // is checked again — a detect that held the lock before us may have
    // computed this very key — with an uncounted Peek: the query already
    // counted its one lookup (the miss above), so counting again would
    // double-book hits+misses against detect_queries.
    std::unique_lock<std::mutex> context_lock(entry->context_mu,
                                              std::try_to_lock);
    if (!context_lock.owns_lock()) {
      batched_queries_->Increment();
      context_lock.lock();
    }
    trace.BeginStage("cache_check");
    cached = detect_cache_.Peek(key);
    trace.EndStage();
    if (cached == nullptr) {
      options.pool = pool_;
      options.trace = &trace;
      Result<DetectionResult> result = [&]() -> Result<DetectionResult> {
        try {
          return DetectTopK(entry->graph, options, &entry->context);
        } catch (const std::exception& e) {
          return Status::Internal(std::string("detection failed: ") +
                                  e.what());
        }
      }();
      // Still under context_mu: the run may have grown the context's
      // intermediates by megabytes, failed runs included.
      RechargeContext(entry);
      if (!result.ok()) return result.status();
      // Schedule telemetry counts executed runs only: a cached replay
      // re-reports the original run's answer, not its wasted worlds.
      worlds_wasted_->Increment(result->worlds_wasted);
      waves_issued_->Increment(result->waves_issued);
      simd_batched_coins_->Increment(result->simd_batched_coins);
      simd_tail_coins_->Increment(result->simd_tail_coins);
      // The computed result outranks the cache insert: if Put throws
      // (allocation pressure copying a large result), the caller still
      // gets its answer and only the cache line is lost.
      trace.BeginStage("cache_insert");
      try {
        detect_cache_.Put(key, *result);
      } catch (...) {
      }
      trace.EndStage();
      context_lock.unlock();
      response.result = result.MoveValue();
      FinishQuery(0, name, key, trace, start, false, &response.seconds);
      return response;
    }
  }
  // Copy outside the cache lock: the cache hands out shared ownership
  // exactly so the hot cached path holds its mutex only for the lookup,
  // not for copying a k-row result.
  response.result = *cached;
  response.from_cache = true;
  FinishQuery(0, name, key, trace, start, true, &response.seconds);
  return response;
}

void QueryEngine::RechargeContext(const std::shared_ptr<CatalogEntry>& entry) {
  const std::size_t new_bytes = entry->context.ApproxBytes();
  // Charge-then-settle: the fresh charge lands first, the previously
  // published amount is credited back, and the detached double-check
  // settles against a concurrent evict/replace/spill. Every interleaving
  // nets to "exactly the published amount is charged" and no discharge
  // ever precedes its matching charge (which would underflow the class).
  governor_->Charge(store::ChargeClass::kContext, new_bytes);
  governor_->Discharge(store::ChargeClass::kContext,
                       entry->charged_context_bytes.exchange(new_bytes));
  if (entry->detached.load(std::memory_order_acquire)) {
    governor_->Discharge(store::ChargeClass::kContext,
                         entry->charged_context_bytes.exchange(0));
  }
}

Result<TruthResponse> QueryEngine::Truth(const std::string& name,
                                         std::size_t samples, uint64_t seed) {
  VULNDS_RETURN_NOT_OK(ValidateGroundTruthSamples(samples));
  const int64_t start = NowMicros();
  obs::QueryTrace trace(clock_);
  trace.BeginStage("cache_lookup");
  Result<std::shared_ptr<CatalogEntry>> resolved = catalog_->GetOrLoad(name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<CatalogEntry> entry = resolved.MoveValue();
  if (entry == nullptr) {
    return Status::NotFound("graph '" + name + "' is not in the catalog");
  }
  ScopedEntryPin pin(entry);
  const std::string key =
      name + "#" + std::to_string(entry->uid) +
      "|truth samples=" + std::to_string(samples) +
      " seed=" + std::to_string(seed);
  truth_queries_->Increment();
  if (const auto cached = truth_cache_.Get(key)) {
    trace.EndStage();
    TruthResponse response;
    response.truth = *cached;
    response.from_cache = true;
    FinishQuery(1, name, key, trace, start, true, &response.seconds);
    return response;
  }
  trace.EndStage();

  TruthResponse response;
  trace.BeginStage("compute");
  response.truth = ComputeGroundTruth(entry->graph, samples, seed, pool_);
  trace.EndStage();
  trace.BeginStage("cache_insert");
  truth_cache_.Put(key, response.truth);
  trace.EndStage();
  FinishQuery(1, name, key, trace, start, false, &response.seconds);
  return response;
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.batched_queries = static_cast<std::size_t>(batched_queries_->Value());
  s.detect_queries = static_cast<std::size_t>(detect_queries_->Value());
  s.truth_queries = static_cast<std::size_t>(truth_queries_->Value());
  s.worlds_wasted = static_cast<std::size_t>(worlds_wasted_->Value());
  s.waves_issued = static_cast<std::size_t>(waves_issued_->Value());
  s.simd_batched_coins =
      static_cast<std::size_t>(simd_batched_coins_->Value());
  s.simd_tail_coins = static_cast<std::size_t>(simd_tail_coins_->Value());
  const CacheStats detect = detect_cache_.stats();
  const CacheStats truth = truth_cache_.stats();
  s.result_cache.hits = detect.hits + truth.hits;
  s.result_cache.misses = detect.misses + truth.misses;
  s.result_cache.evictions = detect.evictions + truth.evictions;
  s.result_cache.inserts = detect.inserts + truth.inserts;
  // Both caches count rejections into the registry's one series.
  s.result_cache.rejected_oversize = detect.rejected_oversize;
  return s;
}

}  // namespace vulnds::serve
