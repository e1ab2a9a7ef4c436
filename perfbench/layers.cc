// The per-layer battery of a traced run: each layer's public calls, timed
// on the workload's own snapshots, request lines and (graph, k) cells.
// Values a workload's replay or scrapes already provide are kept.

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/line_splitter.h"
#include "common/thread_pool.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "net/net_server.h"
#include "revisions.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "store/memory_governor.h"
#include "vulnds/bounds.h"
#include "vulnds/bsrbk.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/candidate_reduction.h"
#include "vulnds/reverse_sampler.h"
#include "vulnds/sample_size.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric, with its unit; BENCHMARK.json lists the same set.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"net.rtt_us", "us"},
    {"common.frame_ns", "ns"},
    {"serve.parse_ns", "ns"},
    {"serve.session_us", "us"},
    {"serve.catalog_lookup_ns", "ns"},
    {"serve.cache_hit_ns", "ns"},
    {"serve.render_us", "us"},
    {"serve.format_ns", "ns"},
    {"serve.miss_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions_per_kop", "1/kop"},
    {"serve.batched_share", "ratio"},
    {"serve.page_in_ms", "ms"},
    {"serve.page_ins_per_kop", "1/kop"},
    {"serve.spills_per_kop", "1/kop"},
    {"store.sheds_per_kop", "1/kop"},
    {"store.resident_mb", "MiB"},
    {"graph.load_ms", "ms"},
    {"vulnds.bounds_ms", "ms"},
    {"vulnds.reduce_ms", "ms"},
    {"vulnds.order_ms", "ms"},
    {"vulnds.bottomk_ms", "ms"},
    {"vulnds.reverse_ms", "ms"},
    {"vulnds.basic_ms", "ms"},
    {"vulnds.worlds", "count"},
    {"vulnds.wasted_share", "ratio"},
    {"vulnds.waves", "count"},
    {"vulnds.stage_coverage", "ratio"},
    {"vulnds.sampled_share", "ratio"},
    {"simd.batched_share", "ratio"},
    {"dyn.stage_us", "us"},
    {"dyn.commit_ms", "ms"},
    {"dyn.journal_kb_per_round", "KiB"},
    {"dyn.compactions", "count"},
    {"dyn.carried_share", "ratio"},
    {"trace.overhead_p50_us", "us"},
    {"trace.unattributed_p99_share", "ratio"},
};

// Worlds method N draws, as in the Fig. 6 grid.
constexpr std::size_t kNaiveWorlds = 2000;

template <typename Fn>
double TimeNs(Fn&& fn) {
  const int64_t t0 = NowNanos();
  fn();
  return static_cast<double>(NowNanos() - t0);
}

void SetIfAbsent(LayerValues* values, const std::string& name, double value) {
  values->emplace(name, value);
}

// Serve-path layers on cache hits of the workload's request lines, plus a
// socket round trip through an in-process NetServer on the same engine.
void ServeLayers(const LayerInputs& in, LayerValues* v, Outcome* out) {
  vulnds::serve::GraphCatalog catalog;
  vulnds::serve::QueryEngineOptions engine_options;
  engine_options.pool = &vulnds::ThreadPool::Global();
  vulnds::serve::QueryEngine engine(&catalog, engine_options);
  vulnds::serve::ServeSession session(&engine);
  for (const auto& [name, path] : in.graphs) {
    if (!catalog.Load(name, path).ok()) {
      out->Fail("battery: cannot load " + name);
      return;
    }
  }
  std::vector<vulnds::serve::ServeRequest> requests;
  std::vector<double> miss_ms;
  for (const std::string& key : in.keys) {
    vulnds::Result<vulnds::serve::ServeRequest> r = vulnds::serve::ParseServeRequest(key);
    if (!r.ok()) {
      out->Fail("battery: bad request line " + key);
      return;
    }
    requests.push_back(*r);
    std::ostringstream sink;
    miss_ms.push_back(TimeNs([&] { session.HandleLine(key, sink); }) / 1e6);
  }
  const std::size_t reps = std::max<std::size_t>(3, 3000 / std::max<std::size_t>(1, in.keys.size()));
  std::vector<double> frame, parse, lookup, hit, handle, format_per_double;
  std::vector<std::vector<double>> per_key_handle(in.keys.size()), per_key_parse(in.keys.size()),
      per_key_hit(in.keys.size());
  vulnds::LineSplitter splitter(vulnds::serve::kMaxRequestLineBytes);
  std::string line;
  std::ostringstream sink;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < in.keys.size(); ++i) {
      const std::string wire = in.keys[i] + "\n";
      frame.push_back(TimeNs([&] {
        splitter.Feed(wire.data(), wire.size());
        splitter.Next(&line);
      }));
      const double p = TimeNs([&] { (void)vulnds::serve::ParseServeRequest(line); });
      parse.push_back(p);
      per_key_parse[i].push_back(p);
      lookup.push_back(TimeNs([&] { (void)catalog.GetOrLoad(requests[i].name); }));
      double h = 0;
      const vulnds::Result<vulnds::serve::DetectResponse> response = TimedCall(
          &h, [&] { return engine.Detect(requests[i].name, requests[i].options); });
      hit.push_back(h);
      per_key_hit[i].push_back(h);
      if (!response.ok() || !response->from_cache) {
        out->Fail("battery: expected a cache hit for " + in.keys[i]);
        return;
      }
      const std::vector<double>& scores = response->result.scores;
      std::size_t bytes = 0;
      const double f = TimeNs([&] {
        for (const double s : scores) bytes += vulnds::serve::FormatRoundTrip(s).size();
      });
      if (!scores.empty() && bytes > 0) {
        format_per_double.push_back(f / static_cast<double>(scores.size()));
      }
      sink.str("");
      const double s = TimeNs([&] { session.HandleLine(in.keys[i], sink); });
      handle.push_back(s);
      per_key_handle[i].push_back(s);
    }
  }
  std::vector<double> render_us;
  for (std::size_t i = 0; i < in.keys.size(); ++i) {
    render_us.push_back((Median(per_key_handle[i]) - Median(per_key_parse[i]) -
                         Median(per_key_hit[i])) / 1e3);
  }
  SetIfAbsent(v, "common.frame_ns", Median(frame));
  SetIfAbsent(v, "serve.parse_ns", Median(parse));
  SetIfAbsent(v, "serve.catalog_lookup_ns", Median(lookup));
  SetIfAbsent(v, "serve.cache_hit_ns", Median(hit));
  SetIfAbsent(v, "serve.session_us", Median(handle) / 1e3);
  SetIfAbsent(v, "serve.render_us", Median(render_us));
  SetIfAbsent(v, "serve.format_ns", Median(format_per_double));
  SetIfAbsent(v, "serve.miss_ms", Median(miss_ms));
  SetIfAbsent(v, "serve.cache_hit_ratio",
              engine.stats().result_cache.HitRate());

  // Socket round trip minus the in-process HandleLine of the same lines.
  vulnds::net::NetServerOptions net_options;
  net_options.tcp_port = 0;
  vulnds::net::NetServer server(&engine, nullptr, net_options);
  if (!server.Start().ok()) {
    out->Fail("battery: in-process NetServer did not start");
    return;
  }
  std::vector<double> rtt;
  {
    LineClient client;
    if (!client.Connect(server.tcp_port())) {
      out->Fail("battery: cannot connect to the in-process NetServer");
    } else {
      std::string response;
      const std::size_t net_reps = std::max<std::size_t>(3, 1000 / std::max<std::size_t>(1, in.keys.size()));
      for (std::size_t rep = 0; rep < net_reps; ++rep) {
        for (const std::string& key : in.keys) {
          rtt.push_back(TimeNs([&] { client.Request(key, &response); }));
        }
      }
    }
  }
  server.BeginDrain();
  server.Join();
  SetIfAbsent(v, "net.rtt_us", (Median(rtt) - Median(handle)) / 1e3);
}

// GetOrLoad on a spilled name: a governor budget that holds only one of
// two snapshots makes every alternate lookup page the other back in.
void PageInProbe(const LayerInputs& in, LayerValues* v, Outcome* out) {
  if (in.graphs.size() < 2) return;
  std::size_t bytes[2] = {0, 0};
  {
    vulnds::serve::GraphCatalog sizing;
    for (std::size_t i = 0; i < 2; ++i) {
      if (!sizing.Load(in.graphs[i].first, in.graphs[i].second).ok()) return;
      bytes[i] = sizing.Get(in.graphs[i].first)->bytes;
    }
  }
  const std::string spill = in.temp_dir + "/spill";
  RemoveTree(spill);
  vulnds::store::MemoryGovernorOptions g;
  g.budget_bytes = std::max(bytes[0], bytes[1]) + std::min(bytes[0], bytes[1]) / 2;
  vulnds::store::MemoryGovernor governor(g);
  vulnds::serve::GraphCatalogOptions options;
  options.spill_dir = spill;
  options.governor = &governor;
  std::vector<double> page_in_ms;
  {
    vulnds::serve::GraphCatalog catalog(options);
    for (std::size_t i = 0; i < 2; ++i) {
      if (!catalog.Load(in.graphs[i].first, in.graphs[i].second).ok()) return;
    }
    for (int rep = 0; rep < 8; ++rep) {
      const std::string& name = in.graphs[static_cast<std::size_t>(rep % 2)].first;
      const std::size_t before = catalog.stats().page_ins;
      const double ns = TimeNs([&] { (void)catalog.GetOrLoad(name); });
      if (catalog.stats().page_ins > before) page_in_ms.push_back(ns / 1e6);
    }
  }
  RemoveTree(spill);
  if (page_in_ms.empty()) {
    out->Fail("battery: the page-in probe paged nothing in");
    return;
  }
  SetIfAbsent(v, "serve.page_in_ms", Median(page_in_ms));
}

// Cold detection stages through their public entry points, per cell, and
// the whole DetectTopK on the same cell for the coverage check.
void DetectionLayers(const LayerInputs& in, LayerValues* v, Outcome* out) {
  vulnds::ThreadPool& pool = vulnds::ThreadPool::Global();
  std::map<std::string, vulnds::UncertainGraph> graphs;
  std::vector<double> load_ms;
  for (const auto& [name, path] : in.graphs) {
    std::vector<double> reads;
    for (int rep = 0; rep < 3; ++rep) {
      double ns = 0;
      vulnds::Result<vulnds::UncertainGraph> g =
          TimedCall(&ns, [&] { return vulnds::ReadGraphFile(path); });
      reads.push_back(ns / 1e6);
      if (!g.ok()) {
        out->Fail("battery: cannot read " + path);
        return;
      }
      if (rep == 0) graphs.emplace(name, g.MoveValue());
    }
    load_ms.push_back(Median(reads));
  }
  double sum_load = 0;
  for (const double ms : load_ms) sum_load += ms;
  SetIfAbsent(v, "graph.load_ms", sum_load);

  const vulnds::DetectorOptions defaults;
  double bounds_ms = 0, reduce_ms = 0, order_ms = 0, bottomk_ms = 0, reverse_ms = 0,
         basic_ms = 0, stages_ms = 0, detect_ms = 0;
  double worlds = 0, wasted = 0, waves = 0, batched = 0, tail = 0;
  std::size_t sampled = 0;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> bounds;
  std::map<std::string, double> bounds_cost;
  for (const auto& [name, k] : in.cells) {
    const vulnds::UncertainGraph& graph = graphs.at(name);
    if (bounds.count(name) == 0) {
      double lo_ns = 0, hi_ns = 0;
      vulnds::Result<std::vector<double>> lo = TimedCall(
          &lo_ns, [&] { return vulnds::LowerBounds(graph, defaults.bound_order, &pool); });
      vulnds::Result<std::vector<double>> hi = TimedCall(
          &hi_ns, [&] { return vulnds::UpperBounds(graph, defaults.bound_order, &pool); });
      const double ns = lo_ns + hi_ns;
      if (!lo.ok() || !hi.ok()) {
        out->Fail("battery: bounds failed on " + name);
        return;
      }
      bounds[name] = {lo.MoveValue(), hi.MoveValue()};
      bounds_cost[name] = ns / 1e6;
      bounds_ms += ns / 1e6;
      basic_ms += TimeNs([&] { (void)vulnds::RunBasicSampling(graph, kNaiveWorlds, in.detect_seed, &pool); }) / 1e6;
    }
    const auto& [lower, upper] = bounds.at(name);
    double reduce_ns = 0;
    const vulnds::Result<vulnds::CandidateReduction> reduced =
        TimedCall(&reduce_ns, [&] { return vulnds::ReduceCandidates(lower, upper, k); });
    const double reduce = reduce_ns / 1e6;
    if (!reduced.ok()) {
      out->Fail("battery: reduction failed on " + name);
      return;
    }
    reduce_ms += reduce;
    double cell_stages = bounds_cost.at(name) + reduce;
    const std::size_t needed = k - reduced->num_verified();
    if (needed > 0 && reduced->candidates.size() > needed) {
      ++sampled;
      const std::size_t t = vulnds::ReducedSampleSize(defaults.eps, defaults.delta, k,
                                                      reduced->num_verified(),
                                                      reduced->candidates.size());
      vulnds::BottomKSampleOrder order;
      const double o_ms = TimeNs([&] { order = vulnds::MakeBottomKSampleOrder(in.detect_seed, t); }) / 1e6;
      std::vector<double> candidate_lower;
      for (const vulnds::NodeId c : reduced->candidates) candidate_lower.push_back(lower[c]);
      vulnds::BottomKRunOptions run;
      run.precomputed = &order;
      run.pool = &pool;
      run.candidate_lower_bounds = &candidate_lower;
      double b_ns = 0;
      const vulnds::Result<vulnds::BottomKRunStats> stats = TimedCall(&b_ns, [&] {
        return vulnds::RunBottomKSampling(graph, reduced->candidates, t, needed, defaults.bk,
                                          in.detect_seed, run);
      });
      const double b_ms = b_ns / 1e6;
      if (!stats.ok()) {
        out->Fail("battery: bottom-k sampling failed on " + name);
        return;
      }
      order_ms += o_ms;
      bottomk_ms += b_ms;
      cell_stages += o_ms + b_ms;
      worlds += static_cast<double>(stats->samples_processed);
      wasted += static_cast<double>(stats->worlds_wasted);
      waves += static_cast<double>(stats->waves_issued);
      batched += static_cast<double>(stats->coin_stats.batched_coins);
      tail += static_cast<double>(stats->coin_stats.tail_coins);
      reverse_ms += TimeNs([&] {
        (void)vulnds::RunReverseSampling(graph, reduced->candidates, t, in.detect_seed, &pool);
      }) / 1e6;
    }
    vulnds::DetectorOptions options;
    options.method = vulnds::Method::kBsrbk;
    options.k = k;
    options.seed = in.detect_seed;
    options.pool = &pool;
    double detect_ns = 0;
    const vulnds::Result<vulnds::DetectionResult> detect =
        TimedCall(&detect_ns, [&] { return vulnds::DetectTopK(graph, options); });
    detect_ms += detect_ns / 1e6;
    if (!detect.ok()) {
      out->Fail("battery: DetectTopK failed on " + name);
      return;
    }
    stages_ms += cell_stages;
  }
  const double cells = static_cast<double>(std::max<std::size_t>(1, in.cells.size()));
  SetIfAbsent(v, "vulnds.bounds_ms", bounds_ms);
  SetIfAbsent(v, "vulnds.reduce_ms", reduce_ms);
  SetIfAbsent(v, "vulnds.order_ms", order_ms);
  SetIfAbsent(v, "vulnds.bottomk_ms", bottomk_ms);
  SetIfAbsent(v, "vulnds.reverse_ms", reverse_ms);
  SetIfAbsent(v, "vulnds.basic_ms", basic_ms);
  SetIfAbsent(v, "vulnds.worlds", worlds);
  SetIfAbsent(v, "vulnds.wasted_share", worlds + wasted > 0 ? wasted / (worlds + wasted) : 0.0);
  SetIfAbsent(v, "vulnds.waves", waves);
  SetIfAbsent(v, "vulnds.stage_coverage", detect_ms > 0 ? stages_ms / detect_ms : 0.0);
  SetIfAbsent(v, "vulnds.sampled_share", static_cast<double>(sampled) / cells);
  SetIfAbsent(v, "simd.batched_share", batched + tail > 0 ? batched / (batched + tail) : 0.0);
}

// The dyn write path on the workload's first cell: journaled stage ops,
// commits and a detect on each new version.
void DynProbe(const LayerInputs& in, LayerValues* v, Outcome* out) {
  if (v->count("dyn.commit_ms") != 0 || in.cells.empty()) return;
  const auto& [name, k] = in.cells.front();
  std::string path;
  for (const auto& g : in.graphs) {
    if (g.first == name) path = g.second;
  }
  const std::string dir = in.temp_dir + "/journal";
  RemoveTree(dir);
  MakeDirs(dir);
  vulnds::Result<vulnds::UncertainGraph> base = vulnds::ReadGraphFile(path);
  if (!base.ok()) return;
  std::vector<vulnds::UncertainEdge> edges(base->edges().begin(), base->edges().end());
  vulnds::Rng rng(in.detect_seed);
  std::vector<double> stage_us, commit_ms, journal_kb;
  double carried = 0, dropped = 0, compactions = 0;
  {
    auto journal = vulnds::dyn::DeltaJournal::Open(dir + "/journal.log");
    if (!journal.ok()) return;
    vulnds::serve::GraphCatalog catalog;
    vulnds::serve::QueryEngineOptions engine_options;
    engine_options.pool = &vulnds::ThreadPool::Global();
    vulnds::serve::QueryEngine engine(&catalog, engine_options);
    vulnds::dyn::UpdateManager updates(&catalog, journal->get());
    updates.SetJournalCompactThreshold(kJournalCompactBytes);
    if (!catalog.Load(name, path).ok()) return;
    vulnds::DetectorOptions options;
    options.method = vulnds::Method::kBsrbk;
    options.k = k;
    options.seed = in.detect_seed;
    if (!engine.Detect(name, options).ok()) return;
    for (int round = 0; round < 6; ++round) {
      const std::size_t journal_before = updates.JournalBytes();
      for (const Revision& r : DrawRound(&edges, base->num_nodes(), rng)) {
        bool ok = true;
        stage_us.push_back(TimeNs([&] {
          switch (r.kind) {
            case Revision::kSet:
              ok = updates.SetProb(name, r.src, r.dst, r.prob).ok();
              break;
            case Revision::kAdd:
              ok = updates.AddEdge(name, r.src, r.dst, r.prob).ok();
              break;
            case Revision::kDel:
              ok = updates.DeleteEdge(name, r.src, r.dst).ok();
              break;
          }
        }) / 1e3);
        if (!ok) {
          out->Fail("battery: dyn stage op rejected");
          return;
        }
      }
      double commit_ns = 0;
      const vulnds::Result<vulnds::serve::CommitInfo> info =
          TimedCall(&commit_ns, [&] { return updates.Commit(name); });
      commit_ms.push_back(commit_ns / 1e6);
      if (!info.ok() || !engine.Detect(info->versioned_name, options).ok()) {
        out->Fail("battery: dyn commit or requery failed");
        return;
      }
      carried += static_cast<double>(info->carried);
      dropped += static_cast<double>(info->dropped);
      if (updates.JournalBytes() >= journal_before) {
        journal_kb.push_back(static_cast<double>(updates.JournalBytes() - journal_before) / 1024.0);
      }
    }
    compactions = static_cast<double>(updates.stats().journal_compactions);
  }
  RemoveTree(dir);
  SetIfAbsent(v, "dyn.stage_us", Median(stage_us));
  SetIfAbsent(v, "dyn.commit_ms", Median(commit_ms));
  SetIfAbsent(v, "dyn.journal_kb_per_round", Median(journal_kb));
  SetIfAbsent(v, "dyn.compactions", compactions);
  SetIfAbsent(v, "dyn.carried_share", carried + dropped > 0 ? carried / (carried + dropped) : 0.0);
}

}  // namespace

void RunLayerBattery(const LayerInputs& given, LayerValues* values, Outcome* outcome) {
  LayerInputs in = given;
  MakeDirs(in.temp_dir);
  if (in.cells.empty()) {
    // Cells default to the distinct (graph, k) pairs of the request lines.
    for (const std::string& key : in.keys) {
      vulnds::Result<vulnds::serve::ServeRequest> r = vulnds::serve::ParseServeRequest(key);
      if (!r.ok()) continue;
      const std::pair<std::string, std::size_t> cell{r->name, r->options.k};
      if (std::find(in.cells.begin(), in.cells.end(), cell) == in.cells.end()) {
        in.cells.push_back(cell);
      }
      in.detect_seed = r->options.seed;
    }
  }
  const double t0 = NowSeconds();
  ServeLayers(in, values, outcome);
  PageInProbe(in, values, outcome);
  DetectionLayers(in, values, outcome);
  DynProbe(in, values, outcome);
  RemoveTree(in.temp_dir);
  std::printf("layer battery: %zu graphs, %zu keys, %zu cells in %.2fs\n", in.graphs.size(),
              in.keys.size(), in.cells.size(), NowSeconds() - t0);
}

void CheckSpanAccounting(const Tracer& tracer, LayerValues* values, Outcome* outcome) {
  const std::vector<double> self = tracer.SelfTimesNs();
  std::vector<double> shares;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (s.parent >= 0) continue;
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    shares.push_back(duration > 0 ? self[i] / duration : 0.0);
  }
  const double p99 = Percentile(shares, 99);
  (*values)["trace.unattributed_p99_share"] = p99;
  std::printf("span accounting: %zu ops, unattributed share p50=%.4f p99=%.4f (limit %.2f)\n",
              shares.size(), Percentile(shares, 50), p99, kMaxUnattributedShare);
  if (p99 > kMaxUnattributedShare) {
    outcome->Fail("child spans leave more than the stated share of op latency unattributed");
  }
}

void EmitLayerMetrics(const LayerValues& values, Outcome* outcome) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    if (it == values.end()) std::printf("layer metric %s not measured; reported as 0\n", name);
    outcome->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
