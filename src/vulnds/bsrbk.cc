#include "vulnds/bsrbk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "vulnds/coin_columns.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {

namespace {

constexpr uint64_t kSampleHashSalt = 0x27220A95FE1D83D5ULL;

// Worlds materialized per worker per wave at the ramp's ceiling. Larger
// waves amortize the ParallelFor synchronization; smaller waves bound the
// work wasted past the early-stop position (at most one wave). The value
// never affects results, only cost — the fold below is position-by-position
// in hash order.
constexpr std::size_t kWaveWorldsPerWorker = 32;

// The geometric growth factor between waves.
constexpr std::size_t kRamp = 2;

// Memory guardrails for the parallel path; neither changes results (worker
// count and wave sizes are execution knobs only — property-tested), they
// only keep a wide pool on a huge graph from ballooning the process.
// Every pool thread keeps one ReverseSampler for its lifetime, sized to the
// largest graph it has sampled, so the pool retains up to its width times
// one sampler's per-node state; a graph that would push that past
// kMaxSamplerBytes runs the serial loop. Each wave slot holds one bitmap of
// |candidates| bytes.
constexpr std::size_t kMaxSamplerBytes = std::size_t{512} << 20;
constexpr std::size_t kMaxWaveBytes = std::size_t{64} << 20;

// Sentinel for "no candidate trajectory supports a stop estimate yet".
constexpr std::size_t kUnknownDistance = std::numeric_limits<std::size_t>::max();

// The sampler a wave task runs on: its pool thread's, which lives as long
// as the thread, or — on the calling thread, where a one-task wave runs
// inline — `*caller`, which lives for the run. Sets *built when this call
// created it.
ReverseSampler& TaskSampler(std::unique_ptr<ReverseSampler>* caller,
                            bool* built) {
  thread_local std::unique_ptr<ReverseSampler> pool_thread_sampler;
  std::unique_ptr<ReverseSampler>& slot =
      ThreadPool::OnWorkerThread() ? pool_thread_sampler : *caller;
  if (slot == nullptr) {
    slot = std::make_unique<ReverseSampler>();
    *built = true;
  }
  return *slot;
}

// Publishes the run's wave-level detail onto the query's trace span. The
// early-stop position is the count of worlds folded — the hash-order prefix
// length the estimates are based on.
void ExportTraceDetail(const BottomKRunStats& stats, obs::QueryTrace* trace) {
  if (trace == nullptr) return;
  trace->waves_issued = stats.waves_issued;
  trace->worlds_wasted = stats.worlds_wasted;
  trace->early_stop_position = stats.samples_processed;
  trace->early_stopped = stats.early_stopped;
}

// The serial count-folding state of the bottom-k run. Folding sample
// `order[pos]` is the only place counters, kth_hash and the stop decision
// are touched, so both the serial loop and the wave-parallel path fold
// through this one code path and stay bit-identical by construction.
class BottomKFolder {
 public:
  BottomKFolder(std::size_t num_candidates, std::size_t needed, int bk,
                const std::vector<double>& hash_of, simd::SimdTier tier,
                BottomKRunStats* stats)
      : needed_(needed),
        bk_(static_cast<uint32_t>(bk)),
        tier_(tier),
        hash_of_(hash_of),
        stats_(stats),
        counts_(num_candidates, 0),
        kth_hash_(num_candidates, 0.0),
        active_scratch_(num_candidates) {}

  /// Folds one materialized world into the counters; returns true when the
  /// early-stop condition fired and no further position may be folded.
  bool Fold(uint32_t sample_id, const std::vector<char>& defaulted,
            std::size_t touched) {
    stats_->nodes_touched += touched;
    ++stats_->samples_processed;
    // The batched form of `if (!defaulted[c] || reached_bk[c]) continue`.
    // Snapshotting the active set up front is exact: folding candidate c can
    // only set reached_bk[c] for c itself, which the loop below re-checks
    // by construction (each c appears once, and was unreached when scanned).
    const std::size_t active = simd::FindActive(
        tier_, reinterpret_cast<const unsigned char*>(defaulted.data()),
        reinterpret_cast<const unsigned char*>(stats_->reached_bk.data()),
        counts_.size(), active_scratch_.data());
    for (std::size_t i = 0; i < active; ++i) {
      const std::size_t c = active_scratch_[i];
      if (++counts_[c] == bk_) {
        stats_->reached_bk[c] = 1;
        kth_hash_[c] = hash_of_[sample_id];
        ++reached_;
      }
    }
    if (reached_ >= needed_) {
      stats_->early_stopped = true;
      return true;
    }
    return false;
  }

  /// The fewest MORE hash-order positions that must fold before the stop
  /// can fire. A fold raises each count by at most one, so the stop waits
  /// at least for the (needed - reached)-th smallest bk - count over the
  /// unreached candidates: exact, where EstimateRemainingToStop guesses.
  std::size_t StopFloor(std::vector<uint32_t>* scratch) const {
    if (reached_ >= needed_) return 0;
    scratch->clear();
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      if (!stats_->reached_bk[c]) scratch->push_back(bk_ - counts_[c]);
    }
    const auto nth = scratch->begin() + (needed_ - reached_ - 1);
    std::nth_element(scratch->begin(), nth, scratch->end());
    return *nth;
  }

  /// Estimates how many MORE hash-order positions must fold before the stop
  /// fires, or kUnknownDistance when no candidate supports an estimate yet.
  /// Per unreached candidate the projected distance is
  ///   (bk - count) / rate,   rate = max(prefix frequency, lower bound),
  /// and the stop needs the (needed - reached)-th fastest of them, so that
  /// order statistic is the estimate. A lower bound can only understate the
  /// true rate, so its projection only overstates the distance; the prefix
  /// frequency is noisy both ways, which is why the caller ramps instead of
  /// trusting a single early estimate. Pure in the fold state — identical
  /// at any given position for every thread count and schedule.
  std::size_t EstimateRemainingToStop(
      const std::vector<double>* lower, std::vector<double>* scratch) const {
    if (reached_ >= needed_) return 0;
    const std::size_t still_needed = needed_ - reached_;
    const double processed = static_cast<double>(stats_->samples_processed);
    scratch->clear();
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      if (stats_->reached_bk[c]) continue;
      double rate = processed > 0.0
                        ? static_cast<double>(counts_[c]) / processed
                        : 0.0;
      if (lower != nullptr) rate = std::max(rate, (*lower)[c]);
      if (!(rate > 0.0)) continue;  // no signal for this candidate yet
      scratch->push_back(static_cast<double>(bk_ - counts_[c]) / rate);
    }
    if (scratch->size() < still_needed) return kUnknownDistance;
    std::nth_element(scratch->begin(), scratch->begin() + (still_needed - 1),
                     scratch->end());
    const double distance = std::ceil((*scratch)[still_needed - 1]);
    if (!(distance < static_cast<double>(kUnknownDistance))) {
      return kUnknownDistance;
    }
    return static_cast<std::size_t>(distance);
  }

  /// Writes the per-candidate estimates once folding is done.
  void FinishEstimates(std::size_t t) const {
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      if (stats_->reached_bk[c]) {
        // Raw sketch estimate, deliberately NOT clamped to 1: the ordering
        // of Theorem 6 is "smaller L(A, bk) first", and clamping would
        // collapse every strong candidate into a tie. Callers clamp for
        // reporting.
        stats_->estimates[c] = static_cast<double>(bk_ - 1) /
                               (kth_hash_[c] * static_cast<double>(t));
      } else {
        stats_->estimates[c] = static_cast<double>(counts_[c]) /
                               static_cast<double>(stats_->samples_processed);
      }
    }
  }

 private:
  std::size_t needed_;
  uint32_t bk_;
  simd::SimdTier tier_;
  std::size_t reached_ = 0;
  const std::vector<double>& hash_of_;
  BottomKRunStats* stats_;
  std::vector<uint32_t> counts_;
  std::vector<double> kth_hash_;
  std::vector<uint32_t> active_scratch_;
};

}  // namespace

BottomKSampleOrder MakeBottomKSampleOrder(uint64_t seed, std::size_t t,
                                          simd::SimdTier tier) {
  BottomKSampleOrder out;
  const uint64_t sample_seed = Mix64(seed ^ kSampleHashSalt);
  out.order.resize(t);
  std::iota(out.order.begin(), out.order.end(), 0);
  // Batched Hash64 over the contiguous id range; the HashUnit conversion
  // (>> 11, + 0.5, * 2^-53) stays scalar — it is exact double arithmetic
  // either way, so hash_of is bit-identical to UniformHash::HashUnit for
  // every tier.
  std::vector<uint64_t> raw(t);
  simd::HashBatch(tier, sample_seed, 0, t, raw.data(), nullptr);
  out.hash_of.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    out.hash_of[i] =
        (static_cast<double>(raw[i] >> 11) + 0.5) * 0x1.0p-53;
  }
  std::sort(out.order.begin(), out.order.end(), [&](uint32_t a, uint32_t b) {
    return out.hash_of[a] < out.hash_of[b];
  });
  return out;
}

Result<BottomKRunStats> RunBottomKSampling(const UncertainGraph& graph,
                                           const std::vector<NodeId>& candidates,
                                           std::size_t t, std::size_t needed,
                                           int bk, uint64_t seed,
                                           const BottomKRunOptions& run) {
  if (bk < 3) {
    return Status::InvalidArgument("bk must be >= 3, got " + std::to_string(bk));
  }
  if (needed == 0) {
    return Status::InvalidArgument("needed must be >= 1");
  }
  if (run.candidate_lower_bounds != nullptr &&
      run.candidate_lower_bounds->size() != candidates.size()) {
    return Status::InvalidArgument("candidate lower bounds size mismatch");
  }
  BottomKRunStats stats;
  stats.total_samples = t;
  stats.estimates.assign(candidates.size(), 0.0);
  stats.reached_bk.assign(candidates.size(), 0);
  if (t == 0 || candidates.empty()) {
    ExportTraceDetail(stats, run.trace);
    return stats;
  }
  needed = std::min(needed, candidates.size());

  // Hash every sample id without materializing the worlds (O(t)), then
  // process in ascending hash order. A caller that issues many queries with
  // the same (seed, t) passes the order in precomputed once.
  const BottomKSampleOrder* precomputed = run.precomputed;
  BottomKSampleOrder local;
  if (precomputed == nullptr) {
    local = MakeBottomKSampleOrder(seed, t, run.simd_tier);
    precomputed = &local;
  } else if (precomputed->order.size() != t || precomputed->hash_of.size() != t) {
    return Status::InvalidArgument("precomputed sample order size mismatch");
  }
  const std::vector<uint32_t>& order = precomputed->order;
  const std::vector<double>& hash_of = precomputed->hash_of;

  const simd::SimdTier tier = run.simd_tier;
  BottomKFolder folder(candidates.size(), needed, bk, hash_of, tier, &stats);

  // The graph's cached columns when the caller has none; every sampler
  // (serial or worker) reads the same immutable columns.
  const CoinColumns* columns = run.coin_columns;
  std::shared_ptr<const CoinColumns> shared_columns;
  if (columns == nullptr && CoinColumns::Worthwhile(graph)) {
    shared_columns = CoinColumns::Shared(graph);
    columns = shared_columns.get();
  }

  ThreadPool* pool = run.pool;
  std::size_t workers = pool == nullptr ? 1 : std::min(pool->num_threads(), t);
  if (pool != nullptr && pool->num_threads() * graph.num_nodes() *
                                 ReverseSampler::kStateBytesPerNode >
                             kMaxSamplerBytes) {
    workers = 1;
  }
  if (workers <= 1) {
    // The serial loop stops exactly at the stop position: zero waste, no
    // wave machinery (worlds_wasted == waves_issued == 0 by definition).
    ReverseSampler sampler;
    sampler.Bind(graph, candidates, columns, tier);
    stats.samplers_built = 1;
    std::vector<char> defaulted;
    for (std::size_t pos = 0; pos < t; ++pos) {
      const uint32_t sample_id = order[pos];
      const std::size_t touched =
          sampler.SampleWorld(WorldSeed(seed, sample_id), &defaulted);
      if (folder.Fold(sample_id, defaulted, touched)) break;
    }
    stats.coin_stats.Add(sampler.coin_stats());
    folder.FinishEstimates(t);
    ExportTraceDetail(stats, run.trace);
    return stats;
  }

  // Wave-parallel: materialize the bitmaps of the next wave of consecutive
  // hash-order positions in parallel (each task rebinds its pool thread's
  // sampler and claims the wave's worlds one at a time from a shared
  // cursor, so no task waits on a slice of slow worlds), then fold serially.
  // SampleWorld's memoization is per-world, so a world's bitmap and touch
  // count are pure in its seed — independent of which sampler materializes
  // it and of what that sampler processed before, in this query or another.
  // The wave schedule below only decides how far past the fold frontier to
  // speculate; the fold itself never sees it.
  const std::size_t byte_cap = std::max(
      workers, kMaxWaveBytes / std::max<std::size_t>(1, candidates.size()));
  const std::size_t cap =
      std::max<std::size_t>(1,
                            std::min({workers * kWaveWorldsPerWorker, byte_cap,
                                      t}));
  // Ramp state: starts at one world per worker and grows geometrically
  // regardless of what the estimate clamps each issued wave to, so a
  // transient underestimate (noisy early prefix frequency) costs one small
  // wave, not a permanently stalled ramp. The stop floor lifts every wave
  // above it, so the first wave is bk worlds (capped) however wide the pool.
  std::size_t ramp_size = std::min(workers, cap);

  // Per-task telemetry of the current wave, summed in task order.
  struct TaskTelemetry {
    simd::CoinKernelStats coins;
    bool built = false;
  };
  std::vector<TaskTelemetry> tasks(workers);
  std::unique_ptr<ReverseSampler> caller_sampler;  // see TaskSampler
  std::vector<std::vector<char>> wave_defaulted(cap);
  std::vector<std::size_t> wave_touched(cap, 0);
  std::vector<double> estimate_scratch;
  std::vector<uint32_t> floor_scratch;

  std::size_t wave_begin = 0;
  while (wave_begin < t) {
    std::size_t wave = ramp_size;
    const std::size_t distance = folder.EstimateRemainingToStop(
        run.candidate_lower_bounds, &estimate_scratch);
    if (distance != kUnknownDistance) {
      // Clamp the wave to the projected distance-to-stop, but never below
      // one world per worker: a narrower wave idles workers without saving
      // any work that the stop would not already save.
      wave = std::min(wave, std::max(workers, distance));
    }
    // Every world short of the stop floor is sure to fold.
    wave = std::min(cap, std::max(wave, folder.StopFloor(&floor_scratch)));
    ramp_size = std::min(cap, ramp_size * kRamp);
    const std::size_t count = std::min(wave, t - wave_begin);
    const std::size_t active = std::min(workers, count);
    // Which task samples a world decides nothing but cost: the world's
    // bitmap and touch count land in its slot, and the ParallelFor's
    // completion publishes every slot to the fold.
    std::atomic<std::size_t> cursor{0};
    pool->ParallelFor(active, [&](std::size_t w) {
      TaskTelemetry& task = tasks[w];
      task.built = false;
      ReverseSampler& sampler = TaskSampler(&caller_sampler, &task.built);
      task.built |= sampler.Bind(graph, candidates, columns, tier);
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        wave_touched[i] = sampler.SampleWorld(
            WorldSeed(seed, order[wave_begin + i]), &wave_defaulted[i]);
      }
      task.coins = sampler.coin_stats();
    });
    ++stats.waves_issued;
    // Coin telemetry covers every materialized world, wasted ones included
    // (it measures cost).
    for (std::size_t w = 0; w < active; ++w) {
      stats.coin_stats.Add(tasks[w].coins);
      stats.samplers_built += tasks[w].built ? 1 : 0;
    }
    bool stop = false;
    std::size_t folded = 0;
    for (std::size_t i = 0; i < count && !stop; ++i) {
      stop = folder.Fold(order[wave_begin + i], wave_defaulted[i],
                         wave_touched[i]);
      ++folded;
    }
    if (stop) {
      stats.worlds_wasted += count - folded;
      break;
    }
    wave_begin += count;
  }
  folder.FinishEstimates(t);
  ExportTraceDetail(stats, run.trace);
  return stats;
}

}  // namespace vulnds
