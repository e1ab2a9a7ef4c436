// The three serving workloads: a load-generator process (this one) against a
// `vulnds_cli serve tcp=0` child, closed loop, one thread per connection.
//
// Untraced runs report the end-to-end metrics. Traced runs repeat the
// untraced run (its stats/metrics scrapes give the per-layer counts), then
// replay a fixed prefix of the workload's ops in process through the public
// calls with spans, cross-check the replay's schedule-pure counts against a
// fresh server fed the same prefix over one connection, and run the layer
// battery.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/line_splitter.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "graph/builder.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "store/memory_governor.h"
#include "vulnds/detector.h"
#include "revisions.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vulnds::DatasetId;
using vulnds::NodeId;
using vulnds::Rng;
using vulnds::UncertainEdge;

constexpr int kSetupRepeats = 7;

// The six Table 2 graphs both detect workloads serve.
const std::vector<DatasetId> kServeGraphs = {
    DatasetId::kBitcoin, DatasetId::kFacebook,  DatasetId::kWiki,
    DatasetId::kP2P,     DatasetId::kGuarantee, DatasetId::kCitation};

using GraphList = std::vector<std::pair<std::string, std::string>>;  // (name, path)

bool PrepareGraphs(const Options& o, const std::vector<DatasetId>& ids, GraphList* out,
                   Outcome* outcome) {
  for (const DatasetId id : ids) {
    const std::string path = EnsureSnapshot(o, id);
    if (path.empty()) {
      outcome->Fail("cannot prepare snapshot " + vulnds::DatasetName(id));
      return false;
    }
    out->emplace_back(vulnds::DatasetName(id), path);
  }
  return true;
}

uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return vulnds::Mix64(seed * 0x9E3779B97F4A7C15ULL + salt);
}

// A response with its wall-clock token and cache flag removed: what must
// repeat byte for byte between two answers to one key.
std::string Canonical(const std::string& response) {
  std::string out = vulnds::serve::StripWallClockTokens(response);
  const std::size_t at = out.find(" cached=1");
  if (at != std::string::npos) out[at + 8] = '0';
  return out;
}

bool LoadAll(LineClient& client, const GraphList& graphs) {
  std::string response;
  for (const auto& [name, path] : graphs) {
    if (!client.Request("load " + name + " " + path, &response) ||
        response.rfind("ok loaded", 0) != 0) {
      std::printf("load %s failed: %s", name.c_str(), response.c_str());
      return false;
    }
  }
  return true;
}

// --- closed loop -------------------------------------------------------------

struct LoopResult {
  std::vector<double> latencies_us;
  std::vector<double> done_at;  ///< completion time of each op, seconds from start
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double elapsed = 0.0;
};

// One op on connection `conn`: `prepare` runs untimed (drawing inputs),
// `run` is the timed round trip(s); false means the op failed.
struct OpFns {
  std::function<void(int conn)> prepare;
  std::function<bool(int conn, LineClient& client)> run;
};

// With `pin`, connection c's thread runs only on the c-th allowed CPU.
LoopResult RunClosedLoop(int port, int connections, double seconds, const OpFns& fns,
                         bool pin) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<LoopResult> per(static_cast<std::size_t>(connections));
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per[static_cast<std::size_t>(c)];
      if (pin && !cpus.empty()) PinThread({cpus[static_cast<std::size_t>(c) % cpus.size()]});
      LineClient client;
      if (!client.Connect(port)) {
        ++mine.attempted;
        ++mine.failed;
        return;
      }
      while (NowSeconds() < deadline) {
        if (fns.prepare) fns.prepare(c);
        const int64_t t0 = NowNanos();
        const bool ok = fns.run(c, client);
        const int64_t t1 = NowNanos();
        mine.latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        mine.done_at.push_back(static_cast<double>(t1) / 1e9 - start);
        ++mine.attempted;
        if (!ok) ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  all.elapsed = NowSeconds() - start;
  for (LoopResult& r : per) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.latencies_us.insert(all.latencies_us.end(), r.latencies_us.begin(),
                            r.latencies_us.end());
    all.done_at.insert(all.done_at.end(), r.done_at.begin(), r.done_at.end());
  }
  return all;
}

// Runs `start_and_warm` kSetupRepeats times on a fresh server (after
// `reset`), timing spawn to end of warm-up; the last server stays up.
double MeasureSetup(ServerProcess* server, const std::function<void()>& reset,
                    const std::function<bool(ServerProcess*)>& start_and_warm,
                    bool* ok) {
  std::vector<double> times;
  *ok = true;
  for (int r = 0; r < kSetupRepeats && *ok; ++r) {
    server->Stop();
    if (reset) reset();
    const double t0 = NowSeconds();
    *ok = start_and_warm(server);
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

void AddEndToEnd(Outcome* out, double setup_s, const LoopResult& loop, double rss_mb) {
  const std::size_t completed = loop.attempted - loop.failed;
  out->Count(loop.attempted, loop.failed);
  std::printf("ops attempted=%zu failed=%zu elapsed=%.3fs\n", loop.attempted,
              loop.failed, loop.elapsed);
  // For the latency percentiles the timed phase is cut into up to 20 equal
  // windows of about 1000 ops or more (so each window's p99 has about 10
  // samples beyond it) and each percentile is the median over windows, which
  // keeps a burst of outside load in one window from moving the run's figure.
  const std::size_t windows = std::clamp<std::size_t>(loop.attempted / 1000, 1, 20);
  const double width = loop.elapsed / static_cast<double>(windows);
  std::vector<std::vector<double>> per_window(windows);
  for (std::size_t i = 0; i < loop.latencies_us.size(); ++i) {
    const std::size_t w = std::min(windows - 1, static_cast<std::size_t>(loop.done_at[i] / width));
    per_window[w].push_back(loop.latencies_us[i]);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& lat : per_window) {
    p50.push_back(Percentile(lat, 50));
    p99.push_back(Percentile(lat, 99));
  }
  std::printf("windows=%zu completed=%zu window p50/us:", windows, completed);
  for (const double v : p50) std::printf(" %.1f", v);
  std::printf("\n");
  out->Add("setup_s", setup_s, "s");
  out->Add("throughput_ops", static_cast<double>(completed) / loop.elapsed, "ops/s");
  out->Add("latency_p50_us", Median(p50), "us");
  out->Add("latency_p99_us", Median(p99), "us");
  out->Add("peak_rss_mb", rss_mb, "MiB");
  if (loop.attempted < 1000) {
    // A slow host is not a wrong answer: the run stays correct, but says so.
    std::printf("warning: %zu ops (<1000); p99 has fewer than 10 samples beyond it\n",
                loop.attempted);
  }
}

// --- in-process serving stack (mirrors vulnds_cli serve's wiring) -----------

struct Stack {
  std::unique_ptr<vulnds::store::MemoryGovernor> governor;
  std::unique_ptr<vulnds::serve::GraphCatalog> catalog;
  std::unique_ptr<vulnds::dyn::DeltaJournal> journal;
  std::unique_ptr<vulnds::serve::QueryEngine> engine;
  std::unique_ptr<vulnds::dyn::UpdateManager> updates;
  std::unique_ptr<vulnds::serve::ServeSession> session;

  Stack(std::size_t mem_bytes, const std::string& spill_dir,
        const std::string& journal_path, std::size_t compact_bytes) {
    vulnds::serve::GraphCatalogOptions catalog_options;
    catalog_options.spill_dir = spill_dir;
    if (mem_bytes != 0) {
      vulnds::store::MemoryGovernorOptions g;
      g.budget_bytes = mem_bytes;
      governor = std::make_unique<vulnds::store::MemoryGovernor>(g);
      catalog_options.governor = governor.get();
    }
    catalog = std::make_unique<vulnds::serve::GraphCatalog>(catalog_options);
    if (!journal_path.empty()) {
      auto opened = vulnds::dyn::DeltaJournal::Open(journal_path);
      if (opened.ok()) journal = opened.MoveValue();
    }
    vulnds::serve::QueryEngineOptions engine_options;
    engine_options.pool = &vulnds::ThreadPool::Global();
    engine = std::make_unique<vulnds::serve::QueryEngine>(catalog.get(), engine_options);
    updates = std::make_unique<vulnds::dyn::UpdateManager>(catalog.get(), journal.get());
    updates->BindObservability(engine->registry());
    updates->SetJournalCompactThreshold(compact_bytes);
    session = std::make_unique<vulnds::serve::ServeSession>(engine.get(), updates.get());
  }

  // One request through the session, as the server would answer it.
  std::string Handle(const std::string& line) {
    std::ostringstream out;
    session->HandleLine(line, out);
    return out.str();
  }
};

// --- detect-stream workloads (hot_cached, zipf_mixed) ------------------------

struct DetectWorkload {
  std::string name;
  GraphList graphs;
  std::vector<std::string> keys;      ///< request lines
  std::vector<std::string> server_args;
  std::size_t mem_bytes = 0;          ///< in-process mirror of mem_bytes=
  std::string spill_dir;              ///< in-process mirror of spill_dir=
  int connections = 1;
  bool pin_clients = false;  ///< one CPU per connection thread
  // Warm-up request indices, in order, and the op stream of connection c.
  std::vector<std::size_t> warm;
  std::function<std::size_t(Rng& rng)> draw;
};

struct ReplayCounts {
  double hits = 0, misses = 0, evictions = 0, spills = 0, page_ins = 0, samples = 0;
  std::vector<double> latencies_us;
};

double SamplesOf(const std::string& response) {
  const double processed = HeaderValue(response, "samples");
  return processed < 0 ? 0.0 : processed;
}

// Plays the warm-up and `ops` draws of the replay stream in process,
// through frame -> parse -> session spans when `tracer` is set.
ReplayCounts ReplayInProcess(const DetectWorkload& w, const std::string& spill_dir,
                             std::size_t ops, uint64_t stream_seed, Tracer* tracer,
                             std::vector<std::string>* responses) {
  RemoveTree(spill_dir);
  Stack stack(w.mem_bytes, spill_dir, "", 0);
  for (const auto& [name, path] : w.graphs) stack.Handle("load " + name + " " + path);
  for (const std::size_t i : w.warm) stack.Handle(w.keys[i]);
  const vulnds::serve::EngineStats e0 = stack.engine->stats();
  const vulnds::serve::CatalogStats c0 = stack.catalog->stats();
  ReplayCounts counts;
  Rng rng(stream_seed);
  vulnds::LineSplitter splitter(vulnds::serve::kMaxRequestLineBytes);
  std::string line;
  for (std::size_t op = 0; op < ops; ++op) {
    const std::string& key = w.keys[w.draw(rng)];
    const std::string wire = key + "\n";
    const int64_t t0 = NowNanos();
    ScopedSpan root(tracer, "op", op);
    {
      ScopedSpan s(tracer, "common.frame", op, root.id());
      splitter.Feed(wire.data(), wire.size());
      splitter.Next(&line);
    }
    {
      ScopedSpan s(tracer, "serve.parse", op, root.id());
      (void)vulnds::serve::ParseServeRequest(line);
    }
    std::string response;
    {
      ScopedSpan s(tracer, "serve.session", op, root.id());
      response = stack.Handle(line);
    }
    root.End();
    counts.latencies_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    if (HeaderValue(response, "cached") == 0) counts.samples += SamplesOf(response);
    if (responses != nullptr) responses->push_back(response);
  }
  const vulnds::serve::EngineStats e1 = stack.engine->stats();
  const vulnds::serve::CatalogStats c1 = stack.catalog->stats();
  counts.hits = static_cast<double>(e1.result_cache.hits - e0.result_cache.hits);
  counts.misses = static_cast<double>(e1.result_cache.misses - e0.result_cache.misses);
  counts.evictions =
      static_cast<double>(e1.result_cache.evictions - e0.result_cache.evictions);
  counts.spills = static_cast<double>(c1.spills - c0.spills);
  counts.page_ins = static_cast<double>(c1.page_ins - c0.page_ins);
  RemoveTree(spill_dir);
  return counts;
}

// The same warm-up and `ops` draws against a fresh server on one connection.
bool ReplayOnServer(const Options& o, const DetectWorkload& w, std::size_t ops,
                    uint64_t stream_seed, ReplayCounts* counts,
                    std::vector<std::string>* responses) {
  RemoveTree(w.spill_dir);
  ServerProcess server;
  if (!server.Start(o.cli, w.server_args, o.work_dir + "/server.log")) return false;
  LineClient client;
  if (!client.Connect(server.port()) || !LoadAll(client, w.graphs)) return false;
  std::string response;
  for (const std::size_t i : w.warm) {
    if (!client.Request(w.keys[i], &response)) return false;
  }
  std::map<std::string, double> before, after;
  if (!Scrape(client, &before)) return false;
  Rng rng(stream_seed);
  for (std::size_t op = 0; op < ops; ++op) {
    if (!client.Request(w.keys[w.draw(rng)], &response)) return false;
    if (HeaderValue(response, "cached") == 0) counts->samples += SamplesOf(response);
    responses->push_back(response);
  }
  if (!Scrape(client, &after)) return false;
  counts->hits = Delta(before, after, "cache_hits");
  counts->misses = Delta(before, after, "cache_misses");
  counts->evictions = Delta(before, after, "serve.evictions");
  counts->spills = Delta(before, after, "metrics.vulnds_store_spills_total");
  counts->page_ins = Delta(before, after, "metrics.vulnds_store_page_ins_total");
  client.Close();
  server.Stop();
  RemoveTree(w.spill_dir);
  return true;
}

void CrossCheck(const std::string& what, double replay, double served, Outcome* out) {
  const bool same = replay == served;
  std::printf("cross-check %s: replay=%.0f served=%.0f %s\n", what.c_str(), replay,
              served, same ? "ok" : "MISMATCH");
  if (!same) out->Fail("cross-check " + what + " differs between replay and server");
}

// Traced part of hot_cached / zipf_mixed.
void TraceDetectWorkload(const Options& o, const DetectWorkload& w, std::size_t ops,
                         std::size_t battery_keys, LayerValues* layer, Outcome* out) {
  const uint64_t stream_seed = StreamSeed(o.seed, 0x7ace);
  const std::string spill = o.work_dir + "/replay-spill";
  // Untraced first, then traced, on fresh stacks: the difference is the
  // tracing overhead.
  const ReplayCounts plain = ReplayInProcess(w, spill, ops, stream_seed, nullptr, nullptr);
  Tracer tracer;
  std::vector<std::string> replay_responses;
  const ReplayCounts traced =
      ReplayInProcess(w, spill, ops, stream_seed, &tracer, &replay_responses);
  (*layer)["trace.overhead_p50_us"] =
      Percentile(traced.latencies_us, 50) - Percentile(plain.latencies_us, 50);
  CheckSpanAccounting(tracer, layer, out);
  const auto self = tracer.SelfTimesByName();
  (*layer)["common.frame_ns"] = Median(self.at("common.frame"));
  (*layer)["serve.parse_ns"] = Median(self.at("serve.parse"));
  std::vector<double> miss_ms;
  const auto durations = tracer.DurationsByName();
  const std::vector<double>& sessions = durations.at("serve.session");
  for (std::size_t i = 0; i < replay_responses.size(); ++i) {
    if (HeaderValue(replay_responses[i], "cached") == 0) miss_ms.push_back(sessions[i] / 1e6);
  }
  if (!miss_ms.empty()) (*layer)["serve.miss_ms"] = Median(miss_ms);
  tracer.WriteJsonl(o.work_dir + "/spans-" + w.name + ".jsonl");

  ReplayCounts served;
  std::vector<std::string> served_responses;
  if (!ReplayOnServer(o, w, ops, stream_seed, &served, &served_responses)) {
    out->Fail("cross-check server replay failed");
    return;
  }
  CrossCheck("cache_hits", traced.hits, served.hits, out);
  CrossCheck("cache_misses", traced.misses, served.misses, out);
  CrossCheck("cache_evictions", traced.evictions, served.evictions, out);
  CrossCheck("samples_processed", traced.samples, served.samples, out);
  CrossCheck("spills", traced.spills, served.spills, out);
  CrossCheck("page_ins", traced.page_ins, served.page_ins, out);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < replay_responses.size(); ++i) {
    if (Canonical(replay_responses[i]) != Canonical(served_responses[i])) ++differing;
  }
  CrossCheck("differing_responses", static_cast<double>(differing), 0.0, out);

  LayerInputs inputs;
  inputs.graphs = w.graphs;
  for (std::size_t i = 0; i < w.keys.size() && i < battery_keys; ++i) {
    inputs.keys.push_back(w.keys[i]);
  }
  inputs.temp_dir = o.work_dir + "/battery";
  RunLayerBattery(inputs, layer, out);
}

// Untraced timed phase shared by hot_cached and zipf_mixed. `check` judges
// one response to key index i (thread-safe).
struct DetectPhase {
  LoopResult loop;
  std::map<std::string, double> before, after;
  double rss_mb = 0;
};

bool RunDetectPhase(const Options& o, const DetectWorkload& w, ServerProcess& server,
                    const std::function<bool(std::size_t, const std::string&)>& check,
                    DetectPhase* phase, Outcome* out) {
  LineClient scraper;
  if (!scraper.Connect(server.port()) || !Scrape(scraper, &phase->before)) {
    out->Fail("pre-phase scrape failed");
    return false;
  }
  std::vector<Rng> rngs;
  for (int c = 0; c < w.connections; ++c) {
    rngs.emplace_back(StreamSeed(o.seed, 100 + static_cast<uint64_t>(c)));
  }
  OpFns fns;
  fns.run = [&](int conn, LineClient& client) {
    const std::size_t i = w.draw(rngs[static_cast<std::size_t>(conn)]);
    std::string response;
    if (!client.Request(w.keys[i], &response)) return false;
    return check(i, response);
  };
  phase->loop = RunClosedLoop(server.port(), w.connections, o.seconds, fns, w.pin_clients);
  if (!Scrape(scraper, &phase->after)) {
    out->Fail("post-phase scrape failed");
    return false;
  }
  phase->rss_mb = PeakRssMb(server.pid());
  return true;
}

void AddServeCountLayers(const DetectPhase& p, LayerValues* layer) {
  const auto d = [&](const std::string& key) { return Delta(p.before, p.after, key); };
  const double kops = static_cast<double>(p.loop.attempted) / 1000.0;
  const double hits = d("cache_hits");
  const double misses = d("cache_misses");
  (*layer)["serve.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*layer)["serve.cache_evictions_per_kop"] = d("serve.evictions") / kops;
  (*layer)["serve.batched_share"] = misses > 0 ? d("batched_queries") / misses : 0.0;
  (*layer)["serve.page_ins_per_kop"] = d("metrics.vulnds_store_page_ins_total") / kops;
  (*layer)["serve.spills_per_kop"] = d("metrics.vulnds_store_spills_total") / kops;
  (*layer)["store.sheds_per_kop"] = d("metrics.vulnds_store_sheds_total") / kops;
  const auto resident = p.after.find("resident_bytes");
  if (resident != p.after.end()) {
    (*layer)["store.resident_mb"] = resident->second / (1024.0 * 1024.0);
  }
}

std::string DetectLine(const std::string& graph, std::size_t k, const char* method,
                       uint64_t seed) {
  return "detect " + graph + " " + std::to_string(k) + " " + method +
         " seed=" + std::to_string(seed);
}

}  // namespace

// --- hot_cached ---------------------------------------------------------------

Outcome RunHotCached(const Options& o) {
  Outcome out;
  DetectWorkload w;
  w.name = "hot_cached";
  if (!PrepareGraphs(o, kServeGraphs, &w.graphs, &out)) return out;
  const uint64_t detect_seed = 1000 + o.seed;
  for (const auto& g : w.graphs) {
    for (const std::size_t k : {16, 64, 256}) {
      for (const char* m : {"BSR", "BSRBK"}) {
        w.keys.push_back(DetectLine(g.first, k, m, detect_seed));
      }
    }
  }
  w.connections = 4;
  // An op is a few tens of microseconds, much of it socket wake-ups. With
  // the connection threads left to the scheduler their placement changed
  // from run to run and the median latency with it (by up to 60% on a
  // 4-core virtual machine); one CPU per connection thread keeps every run
  // alike.
  w.pin_clients = true;
  // Two warm-up passes: the first computes every key, the second answers
  // each from the cache and is the reference the timed phase must repeat.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < w.keys.size(); ++i) w.warm.push_back(i);
  }
  const std::size_t n_keys = w.keys.size();
  w.draw = [n_keys](Rng& rng) { return static_cast<std::size_t>(rng.NextBounded(n_keys)); };

  std::vector<std::string> reference(n_keys);
  std::size_t sampled = 0;
  ServerProcess server;
  bool ok = false;
  const double setup_s = MeasureSetup(
      &server, nullptr,
      [&](ServerProcess* s) {
        if (!s->Start(o.cli, w.server_args, o.work_dir + "/server.log")) {
          return false;
        }
        LineClient client;
        if (!client.Connect(s->port()) || !LoadAll(client, w.graphs)) return false;
        std::string response;
        sampled = 0;
        for (std::size_t j = 0; j < w.warm.size(); ++j) {
          const std::size_t i = w.warm[j];
          if (!client.Request(w.keys[i], &response) ||
              response.rfind("ok detect", 0) != 0) {
            return false;
          }
          if (j < n_keys && SamplesOf(response) > 0) ++sampled;
          if (j >= n_keys) {
            if (HeaderValue(response, "cached") != 1) return false;
            reference[i] = vulnds::serve::StripWallClockTokens(response);
          }
        }
        return true;
      },
      &ok);
  if (!ok) {
    out.Fail("server setup failed");
    return out;
  }
  std::printf("setup_s(median of %d)=%.4f\n", kSetupRepeats, setup_s);
  std::printf("keys=%zu sampled_share=%.4f\n", n_keys,
              static_cast<double>(sampled) / static_cast<double>(n_keys));

  DetectPhase phase;
  if (!RunDetectPhase(
          o, w, server,
          [&](std::size_t i, const std::string& response) {
            return vulnds::serve::StripWallClockTokens(response) == reference[i];
          },
          &phase, &out)) {
    return out;
  }
  server.Stop();
  const double hits = Delta(phase.before, phase.after, "cache_hits");
  const double misses = Delta(phase.before, phase.after, "cache_misses");
  out.Guard("hot_cached.cache_hit_share", hits / std::max(1.0, hits + misses),
            misses == 0 && hits == static_cast<double>(phase.loop.attempted));
  if (phase.loop.failed > 0) out.Fail("responses differ from their warm-up reference");

  if (!o.trace) {
    AddEndToEnd(&out, setup_s, phase.loop, phase.rss_mb);
    return out;
  }
  out.Count(phase.loop.attempted, phase.loop.failed);
  LayerValues layer;
  AddServeCountLayers(phase, &layer);
  TraceDetectWorkload(o, w, 4000, n_keys, &layer, &out);
  EmitLayerMetrics(layer, &out);
  return out;
}

// --- zipf_mixed ---------------------------------------------------------------

namespace {

// (graph, k) pairs whose BSRBK detect samples (bounds alone do not settle
// the top-k). Wiki verifies every node at k <= 64 and Facebook at k = 16.
const std::vector<std::pair<const char*, std::size_t>> kZipfPairs = {
    {"Bitcoin", 64}, {"Bitcoin", 256}, {"Facebook", 64},  {"Facebook", 256},
    {"Wiki", 256},   {"Wiki", 1024},   {"P2P", 64},       {"P2P", 256},
    {"Guarantee", 64}, {"Guarantee", 256}, {"Citation", 16}, {"Citation", 64}};
constexpr std::size_t kZipfKeys = 4096;
constexpr double kZipfExponent = 1.1;
// About half of what the six snapshots occupy once resident, as a fixed
// byte count so the budget does not follow the code under test.
constexpr std::size_t kZipfMemBytes = 33u << 20;
constexpr std::size_t kZipfWarmDraws = 256;

}  // namespace

Outcome RunZipfMixed(const Options& o) {
  Outcome out;
  DetectWorkload w;
  w.name = "zipf_mixed";
  if (!PrepareGraphs(o, kServeGraphs, &w.graphs, &out)) return out;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    const auto& [graph, k] = kZipfPairs[i % kZipfPairs.size()];
    w.keys.push_back(DetectLine(graph, k, "BSRBK", o.seed * 100000 + i / kZipfPairs.size()));
  }
  w.connections = 2;
  w.spill_dir = o.work_dir + "/spill";
  w.mem_bytes = kZipfMemBytes;
  w.server_args = {"mem_bytes=" + std::to_string(kZipfMemBytes), "spill_dir=" + w.spill_dir};
  // Popularity: key i has Zipf rank i + 1, and ranks deal the pairs round
  // robin, so every seed loads each graph alike; --seed picks the detect
  // seeds and the draws.
  auto cdf = std::make_shared<std::vector<double>>(kZipfKeys);
  double total = 0.0;
  for (std::size_t r = 0; r < kZipfKeys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    (*cdf)[r] = total;
  }
  w.draw = [cdf, total](Rng& rng) {
    const double u = rng.NextDouble() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf->begin(), cdf->end(), u) - cdf->begin());
    return std::min(rank, kZipfKeys - 1);
  };
  // Warm-up: one detect per pair (warms every context), then a fixed run of
  // draws so the result cache and the governor start in steady state.
  for (std::size_t i = 0; i < kZipfPairs.size(); ++i) w.warm.push_back(i);
  Rng warm_rng(StreamSeed(o.seed, 0x3a7));
  for (std::size_t j = 0; j < kZipfWarmDraws; ++j) w.warm.push_back(w.draw(warm_rng));

  // Oracle: every answer to a key repeats the first answer seen for it.
  std::vector<std::string> first(kZipfKeys);
  std::mutex first_mu;
  std::atomic<std::size_t> unsampled{0};
  const auto check = [&](std::size_t i, const std::string& response) {
    if (response.rfind("ok detect", 0) != 0) return false;
    if (SamplesOf(response) <= 0) unsampled.fetch_add(1);
    const std::string canon = Canonical(response);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first[i].empty()) first[i] = canon;
    return first[i] == canon;
  };

  ServerProcess server;
  bool ok = false;
  const double setup_s = MeasureSetup(
      &server, [&] { RemoveTree(w.spill_dir); },
      [&](ServerProcess* s) {
        if (!s->Start(o.cli, w.server_args, o.work_dir + "/server.log")) return false;
        LineClient client;
        if (!client.Connect(s->port()) || !LoadAll(client, w.graphs)) return false;
        std::string response;
        for (const std::size_t i : w.warm) {
          if (!client.Request(w.keys[i], &response) || !check(i, response)) return false;
        }
        return true;
      },
      &ok);
  if (!ok) {
    out.Fail("server setup failed");
    return out;
  }
  std::printf("setup_s(median of %d)=%.4f\n", kSetupRepeats, setup_s);

  DetectPhase phase;
  if (!RunDetectPhase(o, w, server, check, &phase, &out)) return out;
  server.Stop();
  RemoveTree(w.spill_dir);
  if (phase.loop.failed > 0) out.Fail("responses differ from the first answer to their key");
  const auto d = [&](const std::string& key) { return Delta(phase.before, phase.after, key); };
  out.Guard("zipf_mixed.cache_evictions", d("serve.evictions"), d("serve.evictions") > 0);
  out.Guard("zipf_mixed.store_sheds", d("metrics.vulnds_store_sheds_total"),
            d("metrics.vulnds_store_sheds_total") > 0);
  out.Guard("zipf_mixed.spills", d("metrics.vulnds_store_spills_total"),
            d("metrics.vulnds_store_spills_total") > 0);
  out.Guard("zipf_mixed.page_ins", d("metrics.vulnds_store_page_ins_total"),
            d("metrics.vulnds_store_page_ins_total") > 0);
  out.Guard("zipf_mixed.unsampled_answers", static_cast<double>(unsampled.load()),
            unsampled.load() == 0);
  const double hits = d("cache_hits");
  std::printf("zipf_mixed cache_hit_share=%.4f\n", hits / std::max(1.0, hits + d("cache_misses")));

  if (!o.trace) {
    AddEndToEnd(&out, setup_s, phase.loop, phase.rss_mb);
    return out;
  }
  out.Count(phase.loop.attempted, phase.loop.failed);
  LayerValues layer;
  AddServeCountLayers(phase, &layer);
  TraceDetectWorkload(o, w, 800, kZipfPairs.size(), &layer, &out);
  EmitLayerMetrics(layer, &out);
  return out;
}

// --- update_requery -------------------------------------------------------------

namespace {

std::string RevisionLine(const std::string& name, const Revision& r) {
  const std::string ends = name + " " + std::to_string(r.src) + " " + std::to_string(r.dst);
  switch (r.kind) {
    case Revision::kSet:
      return "setprob " + ends + " " + vulnds::serve::FormatRoundTrip(r.prob);
    case Revision::kAdd:
      return "addedge " + ends + " " + vulnds::serve::FormatRoundTrip(r.prob);
    case Revision::kDel:
      break;
  }
  return "deledge " + ends;
}

// One versioned lineage: the base snapshot, the client's mirror of its live
// edge list, and every round and answer so far.
struct Lineage {
  std::string name;
  std::string path;
  std::size_t k = 1;
  vulnds::UncertainGraph base;
  std::vector<UncertainEdge> edges;
  Rng rng{1};
  std::vector<std::vector<Revision>> rounds;
  std::vector<std::string> rows;  ///< ranking rows of version v at [v - 1]
  uint64_t detect_seed = 0;
};

bool InitLineage(const std::string& name, const std::string& path, std::size_t k,
                 uint64_t seed, Lineage* l) {
  vulnds::Result<vulnds::UncertainGraph> g = vulnds::ReadGraphFile(path);
  if (!g.ok()) return false;
  l->name = name;
  l->path = path;
  l->k = k;
  l->base = g.MoveValue();
  l->edges.assign(l->base.edges().begin(), l->base.edges().end());
  l->rng = Rng(seed);
  l->rounds.clear();
  l->rows.clear();
  l->detect_seed = 7000 + seed % 1000;
  return true;
}

std::string RowsOf(const vulnds::DetectionResult& r) {
  std::string rows;
  for (std::size_t i = 0; i < r.topk.size(); ++i) {
    rows += std::to_string(i + 1) + " " + std::to_string(r.topk[i]) + " " +
            vulnds::serve::FormatRoundTrip(r.scores[i]) + "\n";
  }
  return rows + ".\n";
}

// Outcome of one round trip sequence against a server.
struct RoundStats {
  double carried = 0, dropped = 0, samples = 0;
  bool detect_cached = false;
  bool ok = false;
};

RoundStats PlayRoundOnServer(LineClient& client, Lineage& l) {
  RoundStats st;
  std::string response;
  for (const Revision& r : l.rounds.back()) {
    if (!client.Request(RevisionLine(l.name, r), &response) ||
        response.rfind("ok ", 0) != 0) {
      return st;
    }
  }
  if (!client.Request("commit " + l.name, &response) ||
      response.rfind("ok committed ", 0) != 0) {
    return st;
  }
  st.carried = HeaderValue(response, "carried");
  st.dropped = HeaderValue(response, "dropped");
  const std::string versioned = response.substr(13, response.find(' ', 13) - 13);
  const uint64_t v = std::strtoull(versioned.c_str() + versioned.rfind("@v") + 2, nullptr, 10);
  if (!client.Request(DetectLine(versioned, l.k, "BSRBK", l.detect_seed), &response) ||
      response.rfind("ok detect", 0) != 0) {
    return st;
  }
  st.detect_cached = HeaderValue(response, "cached") != 0;
  st.samples = SamplesOf(response);
  if (l.rows.size() < v) l.rows.resize(v);
  l.rows[v - 1] = RankingRows(response);
  if (v >= 3) {
    if (!client.Request("evict " + l.name + "@v" + std::to_string(v - 2), &response) ||
        response.rfind("ok evicted", 0) != 0) {
      return st;
    }
  }
  st.ok = true;
  return st;
}

// Every version's answer equals a fresh cold DetectTopK on the
// same edited edge list. Returns the number of versions that differ.
std::size_t CheckVersions(const Lineage& l, std::size_t* checked) {
  std::vector<UncertainEdge> edges(l.base.edges().begin(), l.base.edges().end());
  vulnds::ThreadPool pool;
  std::size_t bad = 0;
  const std::size_t versions = std::min(l.rounds.size(), l.rows.size());
  std::vector<vulnds::UncertainGraph> batch;
  std::vector<std::size_t> batch_versions;
  const auto flush = [&] {
    std::vector<std::string> rows(batch.size());
    pool.ParallelFor(batch.size(), [&](std::size_t i) {
      vulnds::DetectorOptions options;
      options.method = vulnds::Method::kBsrbk;
      options.k = l.k;
      options.seed = l.detect_seed;
      vulnds::Result<vulnds::DetectionResult> r = vulnds::DetectTopK(batch[i], options);
      rows[i] = r.ok() ? RowsOf(*r) : "error";
    });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (rows[i] != l.rows[batch_versions[i]]) ++bad;
    }
    *checked += batch.size();
    batch.clear();
    batch_versions.clear();
  };
  for (std::size_t v = 0; v < versions; ++v) {
    for (const Revision& r : l.rounds[v]) ApplyRevision(r, &edges);
    vulnds::UncertainGraphBuilder b(l.base.num_nodes());
    for (NodeId u = 0; u < l.base.num_nodes(); ++u) (void)b.SetSelfRisk(u, l.base.self_risk(u));
    for (const UncertainEdge& e : edges) (void)b.AddEdge(e.src, e.dst, e.prob);
    vulnds::Result<vulnds::UncertainGraph> g = b.Build();
    if (!g.ok()) return versions;
    batch.push_back(g.MoveValue());
    batch_versions.push_back(v);
    if (batch.size() == pool.num_threads()) flush();
  }
  flush();
  return bad;
}

// (lineage graph, k): a sparse and a dense graph.
const std::pair<DatasetId, std::size_t> kLineages[] = {{DatasetId::kGuarantee, 313},
                                                       {DatasetId::kFacebook, 64}};

}  // namespace

Outcome RunUpdateRequery(const Options& o) {
  Outcome out;
  GraphList graphs;
  std::vector<DatasetId> ids;
  for (const auto& l : kLineages) ids.push_back(l.first);
  if (!PrepareGraphs(o, ids, &graphs, &out)) return out;
  const std::string journal_dir = o.work_dir + "/journal";
  const std::vector<std::string> args = {
      "journal=" + journal_dir + "/journal.log",
      "journal_compact_bytes=" + std::to_string(kJournalCompactBytes)};
  std::vector<Lineage> lineages(ids.size());
  const auto init_all = [&](uint64_t salt) {
    for (std::size_t i = 0; i < lineages.size(); ++i) {
      if (!InitLineage(graphs[i].first, graphs[i].second, kLineages[i].second,
                       StreamSeed(o.seed, salt + i), &lineages[i])) {
        return false;
      }
    }
    return true;
  };
  if (!init_all(200)) {
    out.Fail("cannot read lineage snapshots");
    return out;
  }

  ServerProcess server;
  bool ok = false;
  const auto start_and_warm = [&](ServerProcess* s) {
    if (!MakeDirs(journal_dir) || !s->Start(o.cli, args, o.work_dir + "/server.log")) {
      return false;
    }
    LineClient client;
    if (!client.Connect(s->port()) || !LoadAll(client, graphs)) return false;
    std::string response;
    for (const Lineage& l : lineages) {
      if (!client.Request(DetectLine(l.name, l.k, "BSRBK", l.detect_seed), &response) ||
          response.rfind("ok detect", 0) != 0) {
        return false;
      }
    }
    return true;
  };
  const double setup_s =
      MeasureSetup(&server, [&] { RemoveTree(journal_dir); }, start_and_warm, &ok);
  if (!ok) {
    out.Fail("server setup failed");
    return out;
  }
  std::printf("setup_s(median of %d)=%.4f\n", kSetupRepeats, setup_s);

  LineClient scraper;
  std::map<std::string, double> before, after;
  if (!scraper.Connect(server.port()) || !Scrape(scraper, &before)) {
    out.Fail("pre-phase scrape failed");
    return out;
  }
  std::atomic<std::size_t> cached_detects{0}, uncarried{0}, unsampled{0};
  std::atomic<double> carried{0}, dropped{0};
  OpFns fns;
  fns.prepare = [&](int conn) {
    Lineage& l = lineages[static_cast<std::size_t>(conn)];
    l.rounds.push_back(DrawRound(&l.edges, l.base.num_nodes(), l.rng));
  };
  fns.run = [&](int conn, LineClient& client) {
    const RoundStats st = PlayRoundOnServer(client, lineages[static_cast<std::size_t>(conn)]);
    if (st.detect_cached) cached_detects.fetch_add(1);
    if (st.ok && st.carried <= 0) uncarried.fetch_add(1);
    if (st.ok && st.samples <= 0) unsampled.fetch_add(1);
    carried.fetch_add(st.carried);
    dropped.fetch_add(st.dropped);
    return st.ok;
  };
  const LoopResult loop =
      RunClosedLoop(server.port(), static_cast<int>(lineages.size()), o.seconds, fns, false);
  if (!Scrape(scraper, &after)) out.Fail("post-phase scrape failed");
  const double rss_mb = PeakRssMb(server.pid());
  scraper.Close();
  server.Stop();
  RemoveTree(journal_dir);

  out.Guard("update_requery.cached_detects", static_cast<double>(cached_detects.load()),
            cached_detects.load() == 0);
  out.Guard("update_requery.commits_without_carry", static_cast<double>(uncarried.load()),
            uncarried.load() == 0);
  out.Guard("update_requery.unsampled_detects", static_cast<double>(unsampled.load()),
            unsampled.load() == 0);
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  for (const Lineage& l : lineages) mismatched += CheckVersions(l, &checked);
  std::printf("versions checked against fresh cold detects: %zu, mismatched: %zu\n",
              checked, mismatched);
  if (mismatched > 0) out.Fail("a version's ranking differs from a fresh cold detect");
  LoopResult counted = loop;
  counted.failed += mismatched;

  if (!o.trace) {
    AddEndToEnd(&out, setup_s, counted, rss_mb);
    return out;
  }
  out.Count(counted.attempted, counted.failed);
  LayerValues layer;
  const double kops = static_cast<double>(loop.attempted) / 1000.0;
  const double hits = Delta(before, after, "cache_hits");
  const double misses = Delta(before, after, "cache_misses");
  layer["serve.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layer["serve.cache_evictions_per_kop"] = Delta(before, after, "serve.evictions") / kops;
  layer["serve.batched_share"] = misses > 0 ? Delta(before, after, "batched_queries") / misses : 0.0;
  layer["serve.page_ins_per_kop"] = Delta(before, after, "metrics.vulnds_store_page_ins_total") / kops;
  layer["serve.spills_per_kop"] = Delta(before, after, "metrics.vulnds_store_spills_total") / kops;
  layer["store.sheds_per_kop"] = Delta(before, after, "metrics.vulnds_store_sheds_total") / kops;
  const double c = carried.load();
  layer["dyn.carried_share"] = c + dropped.load() > 0 ? c / (c + dropped.load()) : 0.0;
  const auto resident = after.find("resident_bytes");
  if (resident != after.end()) layer["store.resident_mb"] = resident->second / (1024.0 * 1024.0);

  // Replay: the first rounds of each lineage in process, through the
  // public calls, untraced then traced, then on a fresh server.
  constexpr std::size_t kReplayRounds = 24;
  struct UpdateCounts {
    double commits = 0, carried = 0, dropped = 0, compactions = 0, samples = 0,
           hits = 0, misses = 0;
    std::vector<double> latencies_us;
  };
  const auto replay = [&](Tracer* tracer, UpdateCounts* counts) {
    const std::string dir = o.work_dir + "/replay-journal";
    RemoveTree(dir);
    MakeDirs(dir);
    Stack stack(0, "", dir + "/journal.log", kJournalCompactBytes);
    if (!init_all(200)) return false;
    for (const auto& [name, path] : graphs) {
      if (!stack.catalog->Load(name, path).ok()) return false;
    }
    for (Lineage& l : lineages) {
      vulnds::DetectorOptions options;
      options.method = vulnds::Method::kBsrbk;
      options.k = l.k;
      options.seed = l.detect_seed;
      if (!stack.engine->Detect(l.name, options).ok()) return false;
    }
    const vulnds::serve::EngineStats e0 = stack.engine->stats();
    uint64_t op = 0;
    for (std::size_t r = 0; r < kReplayRounds; ++r) {
      for (Lineage& l : lineages) {
        l.rounds.push_back(DrawRound(&l.edges, l.base.num_nodes(), l.rng));
        const int64_t t0 = NowNanos();
        ScopedSpan root(tracer, "op", op);
        for (const Revision& rev : l.rounds.back()) {
          ScopedSpan s(tracer, "dyn.stage", op, root.id());
          vulnds::Status st;
          switch (rev.kind) {
            case Revision::kSet:
              st = stack.updates->SetProb(l.name, rev.src, rev.dst, rev.prob).status();
              break;
            case Revision::kAdd:
              st = stack.updates->AddEdge(l.name, rev.src, rev.dst, rev.prob).status();
              break;
            case Revision::kDel:
              st = stack.updates->DeleteEdge(l.name, rev.src, rev.dst).status();
              break;
          }
          if (!st.ok()) return false;
        }
        ScopedSpan commit_span(tracer, "dyn.commit", op, root.id());
        const vulnds::Result<vulnds::serve::CommitInfo> info = stack.updates->Commit(l.name);
        commit_span.End();
        if (!info.ok()) return false;
        counts->commits += 1;
        counts->carried += static_cast<double>(info->carried);
        counts->dropped += static_cast<double>(info->dropped);
        vulnds::DetectorOptions options;
        options.method = vulnds::Method::kBsrbk;
        options.k = l.k;
        options.seed = l.detect_seed;
        ScopedSpan detect_span(tracer, "serve.detect", op, root.id());
        const vulnds::Result<vulnds::serve::DetectResponse> d =
            stack.engine->Detect(info->versioned_name, options);
        detect_span.End();
        if (!d.ok()) return false;
        counts->samples += static_cast<double>(d->result.samples_processed);
        if (info->version >= 3) {
          ScopedSpan s(tracer, "serve.evict", op, root.id());
          stack.catalog->Evict(l.name + "@v" + std::to_string(info->version - 2));
        }
        root.End();
        counts->latencies_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
        ++op;
      }
    }
    const vulnds::serve::EngineStats e1 = stack.engine->stats();
    counts->hits = static_cast<double>(e1.result_cache.hits - e0.result_cache.hits);
    counts->misses = static_cast<double>(e1.result_cache.misses - e0.result_cache.misses);
    counts->compactions = static_cast<double>(stack.updates->stats().journal_compactions);
    RemoveTree(dir);
    return true;
  };
  UpdateCounts plain, traced;
  Tracer tracer;
  if (!replay(nullptr, &plain) || !replay(&tracer, &traced)) {
    out.Fail("in-process update replay failed");
    EmitLayerMetrics(layer, &out);
    return out;
  }
  layer["trace.overhead_p50_us"] =
      Percentile(traced.latencies_us, 50) - Percentile(plain.latencies_us, 50);
  CheckSpanAccounting(tracer, &layer, &out);
  const auto durations = tracer.DurationsByName();
  layer["dyn.stage_us"] = Median(durations.at("dyn.stage")) / 1e3;
  layer["dyn.commit_ms"] = Median(durations.at("dyn.commit")) / 1e6;
  layer["serve.miss_ms"] = Median(durations.at("serve.detect")) / 1e6;
  layer["dyn.compactions"] = traced.compactions;
  tracer.WriteJsonl(o.work_dir + "/spans-update_requery.jsonl");

  // The same rounds against a fresh server on one connection.
  UpdateCounts served;
  {
    RemoveTree(journal_dir);
    ServerProcess fresh;
    LineClient client;
    std::map<std::string, double> b, a;
    bool served_ok = init_all(200) && start_and_warm(&fresh) &&
                     client.Connect(fresh.port()) && Scrape(client, &b);
    double last_journal = 0;
    std::size_t journal_rounds = 0;
    double journal_growth = 0;
    for (std::size_t r = 0; r < kReplayRounds && served_ok; ++r) {
      for (Lineage& l : lineages) {
        l.rounds.push_back(DrawRound(&l.edges, l.base.num_nodes(), l.rng));
        const RoundStats st = PlayRoundOnServer(client, l);
        std::string stats;
        served_ok = st.ok && client.Request("stats", &stats);
        if (!served_ok) break;
        served.commits += 1;
        served.carried += st.carried;
        served.dropped += st.dropped;
        served.samples += st.samples;
        const double journal = ParseStats(stats)["journal_bytes"];
        if (journal < last_journal) {
          served.compactions += 1;
        } else {
          journal_growth += journal - last_journal;
          ++journal_rounds;
        }
        last_journal = journal;
      }
    }
    served_ok = served_ok && Scrape(client, &a);
    client.Close();
    fresh.Stop();
    RemoveTree(journal_dir);
    if (!served_ok) {
      out.Fail("cross-check server replay failed");
    } else {
      served.hits = Delta(b, a, "cache_hits");
      served.misses = Delta(b, a, "cache_misses");
      CrossCheck("commits", traced.commits, served.commits, &out);
      CrossCheck("carried", traced.carried, served.carried, &out);
      CrossCheck("dropped", traced.dropped, served.dropped, &out);
      CrossCheck("journal_compactions", traced.compactions, served.compactions, &out);
      CrossCheck("samples_processed", traced.samples, served.samples, &out);
      CrossCheck("cache_hits", traced.hits, served.hits, &out);
      CrossCheck("cache_misses", traced.misses, served.misses, &out);
      // Journal growth per round, compaction rounds excluded.
      if (journal_rounds > 1) {
        layer["dyn.journal_kb_per_round"] =
            journal_growth / static_cast<double>(journal_rounds) / 1024.0;
      }
    }
  }

  LayerInputs inputs;
  inputs.graphs = graphs;
  for (const Lineage& l : lineages) {
    inputs.keys.push_back(DetectLine(l.name, l.k, "BSRBK", l.detect_seed));
    inputs.cells.emplace_back(l.name, l.k);
  }
  inputs.detect_seed = lineages[0].detect_seed;
  inputs.temp_dir = o.work_dir + "/battery";
  RunLayerBattery(inputs, &layer, &out);
  EmitLayerMetrics(layer, &out);
  return out;
}

}  // namespace perfbench
