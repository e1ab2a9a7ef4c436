// Parallel cold-detect benchmark and regression gate.
//
// Measures a COLD BSRBK detection (no DetectionContext, no result cache —
// the serving layer's worst case) on bundled datasets, serial vs a 4-worker
// pool, and a BSR run (reverse-sampling refinement) the same way. Because
// the wave-parallel bottom-k fold is bit-identical to the serial loop, the
// two runs must return the same ranking — verified on every repeat — so the
// only thing allowed to change is the wall time.
//
// Gate: the BSRBK speedup — median over repeats per configuration
// (tolerates up to two outlier repeats of five), aggregated as the median
// across datasets — must be >= 2x at 4 threads. Enforced only when the
// host has >= 4 hardware threads (a 1-core CI runner cannot demonstrate
// any parallel speedup); VULNDS_BENCH_GATE=0 demotes the gate to
// report-only for noisy environments. The JSON record says whether the
// gate was enforced.
//
// SIMD phase: the same cold BSRBK workload serial, kernels pinned scalar vs
// avx2, on the dense datasets (Wiki, Facebook, Bitcoin) where the batched
// coin evaluation dominates — on average-degree-2 graphs an adjacency run
// is a single half-empty vector block and the ratio is structurally ~1, so
// measuring those would gate on Amdahl's law, not on the kernels. Both runs
// must return identical rankings, scores and samples_processed (the kernels
// are bit-identical by contract), and the median avx2-vs-scalar speedup
// must be >= 1.5x — enforced only on hosts with AVX2 (elsewhere the avx2
// tier degrades to scalar and the ratio is ~1 by construction). This gate
// is thread-count independent, so it enforces even on 1-core runners. The
// same phase times a cold N detect per dataset, scalar vs avx2 (the block
// kernel's seeding coins), and reports it as <Dataset>_n_simd_speedup:
// rankings are checked identical, but the ratio is report-only and stays
// out of the median and its gate. Where the host runs AVX-512, the cold N
// detect is also timed avx2 vs avx512 (the tier N runs there by default,
// with its eight-lane edge and seeding coins) as the report-only
// <Dataset>_n_avx512_speedup, rankings again checked identical.
//
// Lane gate: where the host runs AVX-512, the avx512 N run also reports
// <Dataset>_n_avx512_lanes_per_coin, the block kernel's evaluated edge
// lanes per open (edge, world) coin. It is a count, so the host cannot move
// it: the packed edge-coin kernel reads ~1.1, a kernel hashing one masked
// block per non-empty byte of each open word reads ~3. The median over the
// datasets must be <= 1.5. Like the other gates, VULNDS_BENCH_GATE=0 makes
// it report-only.
//
// --json writes BENCH_parallel_detect.json for the CI perf trajectory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "simd/dispatch.h"
#include "vulnds/detector.h"

namespace {

using namespace vulnds;
using namespace vulnds::bench;

constexpr std::size_t kRepeats = 5;
constexpr std::size_t kGateThreads = 4;
constexpr double kGateSpeedup = 2.0;
constexpr double kSimdGateSpeedup = 1.5;
constexpr double kLanesPerCoinGate = 1.5;

// Median cold-detect seconds over kRepeats (the acceptance criterion's
// estimator; five repeats tolerate two noisy outliers); also cross-checks
// that every run returns the ranking of `reference` (determinism is part
// of the contract being benchmarked).
double MedianColdSeconds(const UncertainGraph& graph, DetectorOptions options,
                         ThreadPool* pool, const DetectionResult* reference,
                         DetectionResult* out) {
  options.pool = pool;
  std::vector<double> seconds;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    WallTimer timer;
    Result<DetectionResult> result = DetectTopK(graph, options);
    if (!result.ok()) {
      std::fprintf(stderr, "detect failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    seconds.push_back(timer.Seconds());
    if (reference != nullptr &&
        (result->topk != reference->topk ||
         result->scores != reference->scores ||
         result->samples_processed != reference->samples_processed)) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: ranking diverged across "
                           "execution knobs\n");
      std::exit(1);
    }
    if (out != nullptr && r == 0) *out = result.MoveValue();
  }
  return Percentile(std::move(seconds), 50.0);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchProfile profile = GetProfile();
  PrintProfileBanner(profile, "Parallel cold detection (1 vs 4 threads)");
  BenchJson json("parallel_detect", JsonRequested(argc, argv));

  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_disabled = GateDisabled();
  const bool enforce = hw >= kGateThreads && !gate_disabled;
  std::printf("hardware threads: %u — %s\n\n", hw,
              enforce ? "gate ENFORCED"
              : gate_disabled
                  ? "gate reported but NOT enforced (VULNDS_BENCH_GATE=0)"
                  : "gate reported but NOT enforced (< 4 cores)");
  json.Add("hardware_threads", static_cast<std::size_t>(hw));
  json.Add("gate_enforced", enforce);

  // The SIMD gate compares forced kernel tiers on one thread; it only
  // demonstrates anything where the avx2 tier actually runs AVX2.
  const bool simd_enforce = simd::Avx2Available() && !gate_disabled;
  std::printf("avx2: %s — simd gate %s\n\n",
              simd::Avx2Available() ? "available" : "unavailable",
              simd_enforce ? "ENFORCED" : "reported but NOT enforced");
  json.Add("avx2_available", simd::Avx2Available());
  json.Add("simd_gate_enforced", simd_enforce);

  ThreadPool serial_pool(1);
  ThreadPool wide_pool(kGateThreads);

  TextTable table;
  table.SetHeader({"dataset", "n", "m", "BSRBK 1t", "BSRBK 4t", "speedup",
                   "BSR 1t", "BSR 4t", "speedup"});
  std::vector<double> bsrbk_speedups;

  // Workloads where the sampling stage (the parallel fraction) dominates
  // the serial bound computation. On these generators the strongest
  // candidates default in nearly every world, so the early stop fires after
  // roughly bk samples — bk is therefore the knob that sets how much cold
  // work a BSRBK query does, and a high bk keeps thousands of worlds in
  // flight (~97% of the cold wall time). A too-small workload would measure
  // ParallelFor synchronization instead of the detector.
  const std::vector<DatasetId> datasets = {DatasetId::kWiki, DatasetId::kP2P,
                                           DatasetId::kCitation};
  for (const DatasetId id : datasets) {
    const DatasetSpec spec = GetDatasetSpec(id);
    const double scale =
        profile.full ? 1.0
                     : std::min(1.0, 30000.0 / static_cast<double>(spec.num_nodes));
    Result<UncertainGraph> graph = MakeDataset(id, scale, 42);
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset failed: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }

    DetectorOptions options;
    options.method = Method::kBsrbk;
    options.k = std::max<std::size_t>(1, graph->num_nodes() * 3 / 100);
    options.eps = 0.1;   // a tight budget keeps the stream long
    options.bk = 1024;   // a high bk defers the early stop (~bk worlds)

    DetectionResult reference;
    const double bsrbk_1t =
        MedianColdSeconds(*graph, options, &serial_pool, nullptr, &reference);
    const double bsrbk_4t =
        MedianColdSeconds(*graph, options, &wide_pool, &reference, nullptr);
    const double bsrbk_speedup = bsrbk_1t / std::max(1e-12, bsrbk_4t);
    bsrbk_speedups.push_back(bsrbk_speedup);

    options.method = Method::kBsr;
    DetectionResult bsr_reference;
    const double bsr_1t = MedianColdSeconds(*graph, options, &serial_pool,
                                            nullptr, &bsr_reference);
    const double bsr_4t =
        MedianColdSeconds(*graph, options, &wide_pool, &bsr_reference, nullptr);
    const double bsr_speedup = bsr_1t / std::max(1e-12, bsr_4t);

    const std::string name = DatasetName(id);
    table.AddRow({name, std::to_string(graph->num_nodes()),
                  std::to_string(graph->num_edges()),
                  TextTable::Num(bsrbk_1t, 4), TextTable::Num(bsrbk_4t, 4),
                  TextTable::Num(bsrbk_speedup, 2) + "x",
                  TextTable::Num(bsr_1t, 4), TextTable::Num(bsr_4t, 4),
                  TextTable::Num(bsr_speedup, 2) + "x"});
    json.Add(name + "_bsrbk_serial_s", bsrbk_1t);
    json.Add(name + "_bsrbk_4t_s", bsrbk_4t);
    json.Add(name + "_bsrbk_speedup", bsrbk_speedup);
    json.Add(name + "_bsr_speedup", bsr_speedup);
  }
  std::printf("%s\n", table.ToString().c_str());

  // SIMD phase: cold BSRBK, one thread, kernel tier forced scalar vs avx2,
  // on the dense datasets where coin evaluation dominates (see the file
  // comment — on degree-2 graphs the ratio measures Amdahl's law, not the
  // kernels). The reference comparison inside MedianColdSeconds enforces
  // bit-identity of rankings, scores and samples_processed across tiers;
  // the ratio is the pure kernel win.
  TextTable simd_table;
  simd_table.SetHeader({"dataset", "n", "m", "avg deg", "scalar 1t",
                        "avx2 1t", "speedup", "N speedup", "N avx512"});
  std::vector<double> simd_speedups;
  std::vector<double> lanes_per_coin;
  const std::vector<DatasetId> simd_datasets = {
      DatasetId::kWiki, DatasetId::kFacebook, DatasetId::kBitcoin};
  for (const DatasetId id : simd_datasets) {
    const DatasetSpec spec = GetDatasetSpec(id);
    const double scale =
        profile.full ? 1.0
                     : std::min(1.0, 30000.0 / static_cast<double>(spec.num_nodes));
    Result<UncertainGraph> graph = MakeDataset(id, scale, 42);
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset failed: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }

    DetectorOptions options;
    options.method = Method::kBsrbk;
    options.k = std::max<std::size_t>(1, graph->num_nodes() * 3 / 100);
    options.eps = 0.1;
    options.bk = 1024;
    options.simd_mode = simd::SimdMode::kScalar;
    DetectionResult scalar_reference;
    const double simd_scalar_1t = MedianColdSeconds(
        *graph, options, &serial_pool, nullptr, &scalar_reference);
    options.simd_mode = simd::SimdMode::kAvx2;
    const double simd_avx2_1t = MedianColdSeconds(
        *graph, options, &serial_pool, &scalar_reference, nullptr);
    const double simd_speedup = simd_scalar_1t / std::max(1e-12, simd_avx2_1t);
    simd_speedups.push_back(simd_speedup);

    // Report-only: cold N, whose block kernel seeds through CoinMask64.
    options.method = Method::kNaive;
    options.simd_mode = simd::SimdMode::kScalar;
    DetectionResult n_reference;
    const double n_scalar_1t = MedianColdSeconds(*graph, options, &serial_pool,
                                                 nullptr, &n_reference);
    options.simd_mode = simd::SimdMode::kAvx2;
    const double n_avx2_1t = MedianColdSeconds(*graph, options, &serial_pool,
                                               &n_reference, nullptr);
    const double n_speedup = n_scalar_1t / std::max(1e-12, n_avx2_1t);

    // Report-only: cold N, avx2 vs avx512, where the host has AVX-512; the
    // same runs' edge lanes per open coin feed the lane gate.
    double n_avx512_speedup = 0.0;
    DetectionResult n_avx512;
    if (simd::Avx512Available()) {
      options.simd_mode = simd::SimdMode::kAvx512;
      const double n_avx512_1t = MedianColdSeconds(
          *graph, options, &serial_pool, &n_reference, &n_avx512);
      n_avx512_speedup = n_avx2_1t / std::max(1e-12, n_avx512_1t);
      lanes_per_coin.push_back(
          static_cast<double>(n_avx512.edge_lanes) /
          static_cast<double>(std::max<std::uint64_t>(1, n_avx512.open_coins)));
    }

    const std::string name = DatasetName(id);
    const double avg_deg = graph->num_nodes() == 0
                               ? 0.0
                               : static_cast<double>(graph->num_edges()) /
                                     static_cast<double>(graph->num_nodes());
    simd_table.AddRow({name, std::to_string(graph->num_nodes()),
                       std::to_string(graph->num_edges()),
                       TextTable::Num(avg_deg, 1),
                       TextTable::Num(simd_scalar_1t, 4),
                       TextTable::Num(simd_avx2_1t, 4),
                       TextTable::Num(simd_speedup, 2) + "x",
                       TextTable::Num(n_speedup, 2) + "x",
                       n_avx512_speedup > 0.0
                           ? TextTable::Num(n_avx512_speedup, 2) + "x"
                           : "-"});
    json.Add(name + "_simd_scalar_s", simd_scalar_1t);
    json.Add(name + "_simd_avx2_s", simd_avx2_1t);
    json.Add(name + "_simd_speedup", simd_speedup);
    json.Add(name + "_n_simd_speedup", n_speedup);
    if (n_avx512_speedup > 0.0) {
      json.Add(name + "_n_avx512_speedup", n_avx512_speedup);
      json.Add(name + "_n_avx512_lanes_per_coin", lanes_per_coin.back());
    }
  }
  std::printf("%s\n", simd_table.ToString().c_str());

  const double median_speedup = Percentile(bsrbk_speedups, 50.0);
  std::printf("median BSRBK cold-detect speedup at %zu threads: %.2fx "
              "(gate: >= %.1fx)\n",
              kGateThreads, median_speedup, kGateSpeedup);
  json.Add("bsrbk_speedup_median", median_speedup);
  const bool passed = median_speedup >= kGateSpeedup;
  json.Add("gate_passed", passed);

  const double simd_median = Percentile(simd_speedups, 50.0);
  std::printf("median BSRBK cold-detect avx2-vs-scalar speedup: %.2fx "
              "(gate: >= %.1fx)\n",
              simd_median, kSimdGateSpeedup);
  json.Add("simd_speedup_median", simd_median);
  const bool simd_passed = simd_median >= kSimdGateSpeedup;
  json.Add("simd_gate_passed", simd_passed);

  const bool lanes_enforce = !lanes_per_coin.empty() && !gate_disabled;
  bool lanes_passed = true;
  if (!lanes_per_coin.empty()) {
    const double lanes_median = Percentile(lanes_per_coin, 50.0);
    std::printf("median avx512 N edge lanes per open coin: %.3f "
                "(gate: <= %.1f, %s)\n",
                lanes_median, kLanesPerCoinGate,
                lanes_enforce ? "enforced" : "NOT enforced");
    json.Add("n_avx512_lanes_per_coin_median", lanes_median);
    lanes_passed = lanes_median <= kLanesPerCoinGate;
    json.Add("lanes_gate_passed", lanes_passed);
  }
  if (!json.Write()) return 1;

  // The count gate first: the host cannot make it flake.
  if (lanes_enforce && !lanes_passed) {
    std::fprintf(stderr,
                 "GATE FAILED: the AVX-512 edge-coin kernel evaluates more "
                 "than %.1f lanes per open coin — its packing regressed\n",
                 kLanesPerCoinGate);
    return 1;
  }
  if (enforce && !passed) {
    std::fprintf(stderr,
                 "GATE FAILED: %.2fx < %.1fx — the parallel bottom-k path "
                 "regressed\n",
                 median_speedup, kGateSpeedup);
    return 1;
  }
  if (simd_enforce && !simd_passed) {
    std::fprintf(stderr,
                 "GATE FAILED: %.2fx < %.1fx — the AVX2 coin kernels lost "
                 "their edge over scalar\n",
                 simd_median, kSimdGateSpeedup);
    return 1;
  }
  return 0;
}
