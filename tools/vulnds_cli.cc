// vulnds_cli: command-line front end for the library.
//
//   vulnds_cli generate <dataset> <scale> <seed> <out.graph>
//       Instantiates a registry dataset (Table 2 name, case-insensitive)
//       and writes it in the vulnds-graph text format.
//   vulnds_cli convert <in.graph> <out.graph> <text|binary>
//       Re-encodes a graph between the text format and the v2 binary
//       snapshot format (input format is auto-detected).
//   vulnds_cli stats <graph>
//       Prints node/edge counts and degree statistics.
//   vulnds_cli detect <graph> <k> [method] [key=value ...]
//       Runs top-k detection (method one of N, SN, SR, BSR, BSRBK; default
//       BSRBK) and prints the ranked nodes with scores. Flags: eps=, delta=,
//       seed=, samples= (method N budget), order= (bound order z), bk=,
//       threads= (sampling threads; 0 = one per hardware core), simd=
//       (kernel tier: auto | avx512 | avx2 | scalar; VULNDS_SIMD sets the
//       process default). Results are bit-identical for every thread count
//       and kernel tier.
//   vulnds_cli truth <graph> <k> [samples] [seed]
//       Prints the Monte-Carlo reference top-k (default 20000 worlds).
//   vulnds_cli serve [cache_capacity] [threads=N]
//              [mem_bytes=N] [spill_dir=DIR] [journal=PATH]
//              [journal_compact_bytes=N] [slowlog=path] [slowlog_ms=N]
//              [tcp=PORT] [unix=PATH] [max_conns=N]
//              [idle_timeout_ms=N] [read_timeout_ms=N] [write_timeout_ms=N]
//       Speaks the line-oriented serve protocol on stdin/stdout: graphs are
//       loaded once into a catalog and repeated queries hit two LRU result
//       caches, one for detect and one for truth, of cache_capacity entries
//       per cache; each is one structure behind one mutex.
//       Storage hierarchy: mem_bytes=N puts the whole memory hierarchy
//       (snapshots + warm detection contexts + cached results) under one
//       global byte budget; under pressure the coldest contexts are dropped
//       first, then — with spill_dir=DIR — the coldest unpinned snapshots
//       are parked on disk in the binary format and paged back on demand.
//       journal=PATH makes updates durable: every staged op and commit is
//       appended to a checksummed delta log (fsync'd at commits) and
//       replayed at startup, so committed name@vN versions survive a crash.
//       journal_compact_bytes=N bounds the journal: once a commit leaves it
//       above N bytes it is rewritten around binary snapshots of the
//       committed versions (crash-safe at every step). VULNDS_FAILPOINTS
//       arms IO fault injection (see README "Fault injection & recovery").
//       See README "Storage & durability".
//       Sampling runs on the process-wide pool by default; threads=N pins a
//       dedicated pool of N workers that serves every query. Dynamic updates
//       are enabled:
//       addedge/deledge/setprob stage edge mutations, commit materializes
//       them as a new immutable version registered under <name>@vN, and
//       versions lists the history.
//       Observability: the `metrics` verb renders the whole registry as
//       Prometheus text exposition; slowlog=path appends one JSON line per
//       query at or above slowlog_ms= milliseconds (default 0: every query)
//       with per-stage micros and wave detail. See README "Observability".
//       Network serving: tcp=PORT (0 = ephemeral; the bound port is printed
//       as "listening tcp=HOST:PORT") and/or unix=PATH switch the front end
//       from stdin to sockets, one session per connection over the shared
//       engine, with max_conns= admission control and the three *_timeout_ms=
//       deadlines. SIGTERM/SIGINT (or the `shutdown` verb) drain gracefully:
//       stop accepting, finish in-flight requests, exit 0. See README
//       "Network serving".
//
// All numbers are parsed with checked helpers (common/parse.h): a malformed
// argument is a usage error, never a silent zero.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#ifdef __GLIBC__  // defined by the C library headers above
#include <malloc.h>
#endif

#include "common/failpoint.h"
#include "common/parse.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "net/net_server.h"
#include "obs/slow_query_log.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "store/memory_governor.h"
#include "vulnds/detector.h"
#include "vulnds/ground_truth.h"
#include "vulnds/topk.h"

namespace {

using namespace vulnds;

std::optional<DatasetId> ParseDataset(const std::string& name) {
  const std::string lower = AsciiLower(name);
  for (const DatasetId id : AllDatasets()) {
    if (AsciiLower(DatasetName(id)) == lower) return id;
  }
  return std::nullopt;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  vulnds_cli generate <dataset> <scale> <seed> <out.graph>\n"
               "  vulnds_cli convert <in.graph> <out.graph> <text|binary>\n"
               "  vulnds_cli stats <graph>\n"
               "  vulnds_cli detect <graph> <k> [method] [key=value ...]\n"
               "      keys: eps= delta= seed= samples= order= bk= method=\n"
               "            simd=auto|avx512|avx2|scalar threads=N\n"
               "  vulnds_cli truth <graph> <k> [samples] [seed]\n"
               "  vulnds_cli serve [cache_capacity] [threads=N]\n"
               "             [mem_bytes=N] [spill_dir=DIR] [journal=PATH]\n"
               "             [journal_compact_bytes=N]\n"
               "             [slowlog=path] [slowlog_ms=N]\n"
               "             [tcp=PORT] [unix=PATH] [max_conns=N]\n"
               "             [idle_timeout_ms=N] [read_timeout_ms=N]\n"
               "             [write_timeout_ms=N]\n"
               "      cache_capacity: entries per result cache (detect and\n"
               "      truth each; default 256)\n"
               "      serve verbs: load save detect truth stats metrics\n"
               "      catalog evict addedge deledge setprob commit versions\n"
               "      shutdown quit\n");
  return 2;
}

// Prints the parse error and returns false when `token` is not a valid
// number of the helper's type.
template <typename ParseFn, typename T>
bool ParseArgOr(ParseFn parse, const char* what, const std::string& token, T* out) {
  auto result = parse(token);
  if (!result.ok()) {
    std::fprintf(stderr, "bad %s: %s\n", what, result.status().message().c_str());
    return false;
  }
  *out = static_cast<T>(*result);
  return true;
}

int CmdGenerate(int argc, char** argv) {
  if (argc != 6) return Usage();
  const std::optional<DatasetId> id = ParseDataset(argv[2]);
  if (!id) {
    std::fprintf(stderr, "unknown dataset '%s'\n", argv[2]);
    return 1;
  }
  double scale = 0.0;
  uint64_t seed = 0;
  if (!ParseArgOr(ParseDouble, "scale", argv[3], &scale) ||
      !ParseArgOr(ParseUint64, "seed", argv[4], &seed)) {
    return Usage();
  }
  Result<UncertainGraph> graph = MakeDataset(*id, scale, seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Status st = WriteGraphFile(*graph, argv[5]);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes / %zu edges to %s\n", graph->num_nodes(),
              graph->num_edges(), argv[5]);
  return 0;
}

int CmdConvert(int argc, char** argv) {
  if (argc != 5) return Usage();
  const std::string fmt = AsciiLower(argv[4]);
  if (fmt != "text" && fmt != "binary") {
    std::fprintf(stderr, "unknown format '%s' (want text|binary)\n", argv[4]);
    return 1;
  }
  Result<UncertainGraph> graph = ReadGraphFile(argv[2]);
  if (!graph.ok()) {
    std::fprintf(stderr, "read failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Status st = WriteGraphFile(
      *graph, argv[3],
      fmt == "binary" ? GraphFileFormat::kBinary : GraphFileFormat::kText);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes / %zu edges to %s (%s)\n", graph->num_nodes(),
              graph->num_edges(), argv[3], fmt.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  Result<UncertainGraph> graph = ReadGraphFile(argv[2]);
  if (!graph.ok()) {
    std::fprintf(stderr, "read failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const GraphStats s = ComputeStats(*graph);
  std::printf("nodes:          %zu\n", s.num_nodes);
  std::printf("edges:          %zu\n", s.num_edges);
  std::printf("avg degree:     %.3f\n", s.avg_degree);
  std::printf("max degree:     %zu\n", s.max_degree);
  std::printf("max out-degree: %zu\n", s.max_out_degree);
  std::printf("max in-degree:  %zu\n", s.max_in_degree);
  return 0;
}

int CmdDetect(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<UncertainGraph> graph = ReadGraphFile(argv[2]);
  if (!graph.ok()) {
    std::fprintf(stderr, "read failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  DetectorOptions options;
  if (!ParseArgOr(ParseUint64, "k", argv[3], &options.k)) return Usage();
  // Method and key=value flags share the serve protocol's parser, so the
  // batch and serve flag vocabularies cannot drift apart.
  int next = 4;
  if (next < argc && std::string(argv[next]).find('=') == std::string::npos) {
    Result<Method> method = serve::ParseMethodToken(argv[next]);
    if (!method.ok()) {
      std::fprintf(stderr, "%s\n", method.status().message().c_str());
      return 1;
    }
    options.method = *method;
    ++next;
  }
  std::size_t threads = 0;
  for (; next < argc; ++next) {
    const std::string arg = argv[next];
    // The pool width is this command's own argument, not a query flag: a
    // served detect runs on the engine's one pool.
    if (AsciiLower(arg.substr(0, 8)) == "threads=") {
      if (!ParseArgOr(ParseUint64, "threads", arg.substr(8), &threads)) {
        return Usage();
      }
      if (threads > kMaxDetectThreads) {
        std::fprintf(stderr, "threads must be <= %zu\n", kMaxDetectThreads);
        return Usage();
      }
      continue;
    }
    const Status st = serve::ApplyDetectFlag(arg, &options);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return Usage();
    }
  }
  // threads=0 (the default) sizes the pool to the hardware; the results are
  // the same either way, only the wall time moves.
  ThreadPool pool(threads);
  options.pool = &pool;

  WallTimer timer;
  Result<DetectionResult> result = DetectTopK(*graph, options);
  if (!result.ok()) {
    std::fprintf(stderr, "detect failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  TextTable table;
  table.SetHeader({"rank", "node", "score"});
  for (std::size_t i = 0; i < result->topk.size(); ++i) {
    table.AddRow({std::to_string(i + 1), std::to_string(result->topk[i]),
                  TextTable::Num(result->scores[i], 5)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("method=%s time=%.3fs samples=%zu/%zu verified=%zu |B|=%zu%s\n",
              MethodName(options.method).c_str(), timer.Seconds(),
              result->samples_processed, result->samples_budget,
              result->verified_count, result->candidate_count,
              result->early_stopped ? " (early stop)" : "");
  if (options.method == Method::kBsrbk && result->waves_issued > 0) {
    // Schedule telemetry (varies with threads; the ranking does not).
    std::printf("waves=%zu wasted_worlds=%zu\n", result->waves_issued,
                result->worlds_wasted);
  }
  return 0;
}

int CmdTruth(int argc, char** argv) {
  if (argc < 4 || argc > 6) return Usage();
  Result<UncertainGraph> graph = ReadGraphFile(argv[2]);
  if (!graph.ok()) {
    std::fprintf(stderr, "read failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::size_t k = 0;
  std::size_t samples = kPaperGroundTruthSamples;
  uint64_t seed = 777;
  if (!ParseArgOr(ParseUint64, "k", argv[3], &k)) return Usage();
  if (argc > 4 && !ParseArgOr(ParseUint64, "samples", argv[4], &samples)) {
    return Usage();
  }
  if (argc > 5 && !ParseArgOr(ParseUint64, "seed", argv[5], &seed)) return Usage();
  const Status valid = ValidateGroundTruthSamples(samples);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    return Usage();
  }
  // The range detect enforces, with its message: k = 0 or k > n is an error,
  // not an empty or truncated table.
  const Status k_ok = ValidateTopK(k, graph->num_nodes());
  if (!k_ok.ok()) {
    std::fprintf(stderr, "truth failed: %s\n", k_ok.ToString().c_str());
    return 1;
  }
  ThreadPool pool;
  const GroundTruth gt = ComputeGroundTruth(*graph, samples, seed, &pool);
  TextTable table;
  table.SetHeader({"rank", "node", "p(default)"});
  std::size_t rank = 1;
  for (const NodeId v : gt.TopK(k)) {
    table.AddRow({std::to_string(rank++), std::to_string(v),
                  TextTable::Num(gt.probabilities[v], 5)});
  }
  std::printf("%s(%zu sampled worlds)\n", table.ToString().c_str(), samples);
  return 0;
}

int CmdServe(int argc, char** argv) {
  if (argc > 20) return Usage();
#ifdef __GLIBC__
  // One malloc arena for the whole server, set before any thread starts:
  // the columns a spill frees on one session thread are then reused by the
  // next page-in on another, instead of each thread's arena holding its
  // own high-water mark. This keeps peak RSS near the mem_bytes= budget.
  mallopt(M_ARENA_MAX, 1);
#endif
  serve::QueryEngineOptions engine_options;
  serve::GraphCatalogOptions catalog_options;
  net::NetServerOptions net_options;
  bool tcp_seen = false;
  bool max_conns_seen = false;
  std::optional<std::size_t> threads;
  std::string slowlog_path;
  std::optional<std::uint64_t> slowlog_ms;
  std::size_t mem_bytes = 0;
  std::string journal_path;
  std::size_t journal_compact_bytes = 0;
  bool capacity_seen = false;
  // Fault injection (tests / chaos tooling): arm failpoints named in
  // VULNDS_FAILPOINTS before any IO the knobs below can trigger, and echo
  // the armed set to stderr so a chaos run is reproducible from its log.
  if (const Status armed = fail::ArmFromEnv(); !armed.ok()) {
    std::fprintf(stderr, "serve: %s\n", armed.message().c_str());
    return 1;
  }
  for (const std::string& point : fail::ArmedPoints()) {
    std::fprintf(stderr, "failpoint armed: %s\n", point.c_str());
  }
  // Parses one of the net-layer `<key>_ms=` timeout knobs into *out.
  const auto parse_timeout = [&](const std::string& arg, const char* key,
                                 std::size_t key_len, int* out) {
    if (*out >= 0) {
      std::fprintf(stderr, "duplicate %s= argument\n", key);
      return false;
    }
    std::uint64_t ms = 0;
    if (!ParseArgOr(ParseUint64, key, arg.substr(key_len), &ms) ||
        ms > 86'400'000) {
      std::fprintf(stderr, "%s= must be a millisecond count (<= 1 day)\n", key);
      return false;
    }
    *out = static_cast<int>(ms);
    return true;
  };
  // Sentinel: -1 = "not set yet" so duplicates are caught; defaults are
  // restored after parsing.
  const net::NetServerOptions net_defaults;
  net_options.idle_timeout_ms = -1;
  net_options.read_timeout_ms = -1;
  net_options.write_timeout_ms = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("tcp=", 0) == 0) {
      if (tcp_seen) {
        std::fprintf(stderr, "duplicate tcp= argument\n");
        return Usage();
      }
      std::uint64_t port = 0;
      if (!ParseArgOr(ParseUint64, "tcp", arg.substr(4), &port) ||
          port > 65535) {
        std::fprintf(stderr, "tcp= needs a port in [0, 65535] (0 = ephemeral)\n");
        return Usage();
      }
      net_options.tcp_port = static_cast<int>(port);
      tcp_seen = true;
    } else if (arg.rfind("unix=", 0) == 0) {
      if (!net_options.unix_path.empty()) {
        std::fprintf(stderr, "duplicate unix= argument\n");
        return Usage();
      }
      net_options.unix_path = arg.substr(5);
      if (net_options.unix_path.empty()) {
        std::fprintf(stderr, "unix= needs a socket path\n");
        return Usage();
      }
    } else if (arg.rfind("max_conns=", 0) == 0) {
      if (max_conns_seen) {
        std::fprintf(stderr, "duplicate max_conns= argument\n");
        return Usage();
      }
      if (!ParseArgOr(ParseUint64, "max_conns", arg.substr(10),
                      &net_options.max_connections) ||
          net_options.max_connections == 0) {
        std::fprintf(stderr, "max_conns= needs a positive count\n");
        return Usage();
      }
      max_conns_seen = true;
    } else if (arg.rfind("idle_timeout_ms=", 0) == 0) {
      if (!parse_timeout(arg, "idle_timeout_ms", 16,
                         &net_options.idle_timeout_ms)) {
        return Usage();
      }
    } else if (arg.rfind("read_timeout_ms=", 0) == 0) {
      if (!parse_timeout(arg, "read_timeout_ms", 16,
                         &net_options.read_timeout_ms)) {
        return Usage();
      }
    } else if (arg.rfind("write_timeout_ms=", 0) == 0) {
      if (!parse_timeout(arg, "write_timeout_ms", 17,
                         &net_options.write_timeout_ms)) {
        return Usage();
      }
    } else if (arg.rfind("threads=", 0) == 0) {
      if (threads.has_value()) {
        std::fprintf(stderr, "duplicate threads= argument\n");
        return Usage();
      }
      std::size_t n = 0;
      if (!ParseArgOr(ParseUint64, "threads", arg.substr(8), &n)) return Usage();
      if (n > kMaxDetectThreads) {
        std::fprintf(stderr, "threads must be <= %zu\n", kMaxDetectThreads);
        return Usage();
      }
      threads = n;
    } else if (arg.rfind("mem_bytes=", 0) == 0) {
      if (mem_bytes != 0) {
        std::fprintf(stderr, "duplicate mem_bytes= argument\n");
        return Usage();
      }
      if (!ParseArgOr(ParseUint64, "mem_bytes", arg.substr(10), &mem_bytes) ||
          mem_bytes == 0) {
        std::fprintf(stderr, "mem_bytes= needs a positive byte budget\n");
        return Usage();
      }
    } else if (arg.rfind("spill_dir=", 0) == 0) {
      if (!catalog_options.spill_dir.empty()) {
        std::fprintf(stderr, "duplicate spill_dir= argument\n");
        return Usage();
      }
      catalog_options.spill_dir = arg.substr(10);
      if (catalog_options.spill_dir.empty()) {
        std::fprintf(stderr, "spill_dir= needs a directory path\n");
        return Usage();
      }
    } else if (arg.rfind("journal=", 0) == 0) {
      if (!journal_path.empty()) {
        std::fprintf(stderr, "duplicate journal= argument\n");
        return Usage();
      }
      journal_path = arg.substr(8);
      if (journal_path.empty()) {
        std::fprintf(stderr, "journal= needs a file path\n");
        return Usage();
      }
    } else if (arg.rfind("journal_compact_bytes=", 0) == 0) {
      if (journal_compact_bytes != 0) {
        std::fprintf(stderr, "duplicate journal_compact_bytes= argument\n");
        return Usage();
      }
      if (!ParseArgOr(ParseUint64, "journal_compact_bytes", arg.substr(22),
                      &journal_compact_bytes) ||
          journal_compact_bytes == 0) {
        std::fprintf(stderr,
                     "journal_compact_bytes= needs a positive byte "
                     "threshold\n");
        return Usage();
      }
    } else if (arg.rfind("slowlog=", 0) == 0) {
      if (!slowlog_path.empty()) {
        std::fprintf(stderr, "duplicate slowlog= argument\n");
        return Usage();
      }
      slowlog_path = arg.substr(8);
      if (slowlog_path.empty()) {
        std::fprintf(stderr, "slowlog= needs a path\n");
        return Usage();
      }
    } else if (arg.rfind("slowlog_ms=", 0) == 0) {
      if (slowlog_ms.has_value()) {
        std::fprintf(stderr, "duplicate slowlog_ms= argument\n");
        return Usage();
      }
      std::uint64_t ms = 0;
      if (!ParseArgOr(ParseUint64, "slowlog_ms", arg.substr(11), &ms)) {
        return Usage();
      }
      slowlog_ms = ms;
    } else if (capacity_seen) {
      // A second positional number is a mistake (e.g. `serve 100 4` where
      // `threads=4` was meant); refuse rather than silently overwrite.
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return Usage();
    } else if (ParseArgOr(ParseUint64, "cache_capacity", arg,
                          &engine_options.result_cache_capacity)) {
      capacity_seen = true;
    } else {
      return Usage();
    }
  }
  // Default: the process-wide shared pool; threads=N pins a dedicated pool
  // (N = 0 means one worker per hardware core).
  std::optional<ThreadPool> own_pool;
  if (threads.has_value()) own_pool.emplace(*threads);
  engine_options.pool = own_pool.has_value() ? &*own_pool : &ThreadPool::Global();
  if (slowlog_ms.has_value() && slowlog_path.empty()) {
    std::fprintf(stderr, "slowlog_ms= needs slowlog=path\n");
    return Usage();
  }
  std::ofstream slowlog_file;
  std::optional<obs::SlowQueryLog> slowlog;
  if (!slowlog_path.empty()) {
    slowlog_file.open(slowlog_path, std::ios::app);
    if (!slowlog_file) {
      std::fprintf(stderr, "cannot open slowlog '%s'\n", slowlog_path.c_str());
      return 1;
    }
    const std::int64_t threshold_micros =
        static_cast<std::int64_t>(slowlog_ms.value_or(0)) * 1000;
    slowlog.emplace(&slowlog_file, threshold_micros);
    engine_options.slowlog = &*slowlog;
  }
  // Construction (and thus destruction) order matters: the governor must
  // outlive the catalog that charges through it, the catalog must outlive
  // the engine and the update manager, and the journal must outlive the
  // update manager that appends to it.
  std::optional<store::MemoryGovernor> governor;
  if (mem_bytes != 0) {
    store::MemoryGovernorOptions governor_options;
    governor_options.budget_bytes = mem_bytes;
    governor.emplace(governor_options);
    catalog_options.governor = &*governor;
  }
  if (journal_compact_bytes != 0 && journal_path.empty()) {
    std::fprintf(stderr, "journal_compact_bytes= needs journal=\n");
    return Usage();
  }
  serve::GraphCatalog catalog(catalog_options);
  std::unique_ptr<dyn::DeltaJournal> journal;
  if (!journal_path.empty()) {
    Result<std::unique_ptr<dyn::DeltaJournal>> opened =
        dyn::DeltaJournal::Open(journal_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: %s\n", opened.status().message().c_str());
      return 1;
    }
    journal = opened.MoveValue();
  }
  serve::QueryEngine engine(&catalog, engine_options);
  dyn::UpdateManager updates(&catalog, journal.get());
  updates.BindObservability(engine.registry());
  updates.SetJournalCompactThreshold(journal_compact_bytes);
  if (journal != nullptr) {
    const Result<dyn::JournalReplayStats> replayed = updates.ReplayJournal();
    if (!replayed.ok()) {
      std::fprintf(stderr, "serve: journal replay failed: %s\n",
                   replayed.status().message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "journal replayed: %zu records, %zu commits, %zu staged ops, "
                 "%zu skipped, %zu torn-tail bytes dropped\n",
                 replayed->records, replayed->commits, replayed->ops,
                 replayed->skipped, replayed->dropped_tail_bytes);
  }

  const bool socket_mode = tcp_seen || !net_options.unix_path.empty();
  if (net_options.idle_timeout_ms < 0) {
    net_options.idle_timeout_ms = net_defaults.idle_timeout_ms;
  }
  if (net_options.read_timeout_ms < 0) {
    net_options.read_timeout_ms = net_defaults.read_timeout_ms;
  }
  if (net_options.write_timeout_ms < 0) {
    net_options.write_timeout_ms = net_defaults.write_timeout_ms;
  }
  if (!socket_mode &&
      (max_conns_seen ||
       net_options.idle_timeout_ms != net_defaults.idle_timeout_ms ||
       net_options.read_timeout_ms != net_defaults.read_timeout_ms ||
       net_options.write_timeout_ms != net_defaults.write_timeout_ms)) {
    std::fprintf(stderr, "net options need tcp= and/or unix=\n");
    return Usage();
  }

  if (socket_mode) {
    net::NetServer server(&engine, &updates, net_options);
    if (const Status st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.message().c_str());
      return 1;
    }
    // One "listening ..." line per transport, flushed before any traffic:
    // scripts parse these to learn the ephemeral TCP port / socket path.
    if (tcp_seen) {
      std::printf("listening tcp=%s:%d\n", net_options.tcp_host.c_str(),
                  server.tcp_port());
    }
    if (!net_options.unix_path.empty()) {
      std::printf("listening unix=%s\n", net_options.unix_path.c_str());
    }
    std::fflush(stdout);
    // SIGTERM/SIGINT write one byte to the drain pipe (async-signal-safe):
    // stop accepting, finish in-flight requests, flush stats, exit 0.
    (void)net::InstallDrainOnSignal(&server, SIGTERM);
    (void)net::InstallDrainOnSignal(&server, SIGINT);
    server.Join();
    net::ResetDrainSignal(SIGTERM);
    net::ResetDrainSignal(SIGINT);
    const serve::ServerStats& stats = server.server_stats();
    const net::NetStatsSnapshot net_stats = server.stats();
    std::fprintf(stderr,
                 "serve drained: %zu sessions, %zu requests, %zu errors, "
                 "%zu updates; %zu rejected busy, %zu timeouts\n",
                 static_cast<std::size_t>(stats.sessions_finished->Value()),
                 static_cast<std::size_t>(stats.requests->Value()),
                 static_cast<std::size_t>(stats.errors->Value()),
                 static_cast<std::size_t>(stats.updates->Value()),
                 net_stats.rejected_busy,
                 net_stats.idle_timeouts + net_stats.read_timeouts +
                     net_stats.write_timeouts);
    return 0;
  }

  // Server-level counters even for the single-session stdin front, so the
  // `metrics` verb exports the full vulnds_server_* family set.
  serve::ServerStats server(*engine.registry());
  const serve::ServeLoopStats stats = serve::RunServeLoop(
      std::cin, std::cout, engine, &updates, &server);
  std::fprintf(stderr, "serve session: %zu requests, %zu errors, %zu updates\n",
               stats.requests, stats.errors, stats.updates);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "convert") return CmdConvert(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "detect") return CmdDetect(argc, argv);
  if (command == "truth") return CmdTruth(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  return Usage();
}
