// The line-oriented serve protocol.
//
// One request per line, whitespace separated; '#' starts a comment line.
//   load <name> <path>                       register a snapshot (text|binary)
//   save <name> <path> [text|binary]         write a snapshot (default binary)
//   detect <name> <k> [method] [key=value…]  top-k query; keys: eps, delta,
//                                            seed, samples, order, bk,
//                                            method, simd (kernel tier:
//                                            auto | avx512 | avx2 |
//                                            scalar;
//                                            execution-only)
//   truth <name> <k> [samples] [seed]        Monte-Carlo reference top-k
//   stats [<name>]                           graph stats / engine counters
//   metrics                                  Prometheus text exposition of
//                                            the whole registry (engine,
//                                            server, catalog + caches)
//   catalog                                  resident graphs, MRU first
//   evict <name>                             drop a graph (and its state)
//   addedge <name> <src> <dst> <prob>        stage an edge insertion
//   deledge <name> <src> <dst>               stage an edge deletion
//   setprob <name> <src> <dst> <prob>        stage a probability update
//   commit <name>                            materialize staged updates as
//                                            the next version <name>@vN
//   versions <name>                          version history of <name>
//   shutdown                                 begin graceful drain: the front
//                                            end stops accepting, in-flight
//                                            requests finish, the process
//                                            exits 0 (stdin front: quit;
//                                            net front: drains the server)
//   quit                                     end the session
//
// Responses (server.h) are line-oriented too: the first line starts with
// "ok" or "err", multi-line payloads are terminated by a single ".".
//
// Parsing is pure (no catalog access), so malformed input is testable and
// can never take the serving loop down.

#ifndef VULNDS_SERVE_PROTOCOL_H_
#define VULNDS_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/parse.h"
#include "common/status.h"
#include "graph/graph_io.h"
#include "vulnds/detector.h"

namespace vulnds::serve {

/// The request verbs of the protocol.
enum class ServeCommand {
  kLoad = 0,
  kSave,
  kDetect,
  kTruth,
  kStats,
  kMetrics,
  kCatalog,
  kEvict,
  kAddEdge,
  kDelEdge,
  kSetProb,
  kCommit,
  kVersions,
  kShutdown,
  kQuit,
  kNone,  ///< blank or comment line; nothing to execute
};

/// Wire name of a command ("detect", "metrics", ...; "none" for kNone).
/// The label vocabulary of the per-verb request metrics.
const char* ServeCommandName(ServeCommand command);

/// A parsed request; only the fields of the active command are meaningful.
struct ServeRequest {
  ServeCommand command = ServeCommand::kNone;
  std::string name;  ///< graph name (all commands but catalog/quit)
  std::string path;  ///< load/save
  GraphFileFormat format = GraphFileFormat::kBinary;  ///< save
  DetectorOptions options;                            ///< detect (k included)
  std::size_t k = 1;                                  ///< truth
  std::size_t samples = 0;  ///< truth; 0 = paper default
  uint64_t seed = 777;      ///< truth
  NodeId src = 0;           ///< addedge/deledge/setprob
  NodeId dst = 0;           ///< addedge/deledge/setprob
  double prob = 0.0;        ///< addedge/setprob
};

/// Parses one protocol line. Unknown verbs, wrong arity, and malformed
/// numbers return InvalidArgument with a message suitable for an "err"
/// response line.
/// One pass over the line: tokens are views into it, split at operator>>'s
/// separators (space, \t, \n, \v, \f, \r), and only the fields the
/// request stores are copied out.
Result<ServeRequest> ParseServeRequest(std::string_view line);

/// Case-insensitive method name lookup ("bsrbk" -> Method::kBsrbk).
Result<Method> ParseMethodToken(std::string_view name);

/// Applies one "key=value" detect option assignment (method, eps, delta,
/// seed, samples, order, bk, simd) to `options`. Shared by the serve
/// protocol and the batch CLI so the flag vocabulary cannot drift between
/// them (the CLI's own `threads=` pool width is parsed before this).
Status ApplyDetectFlag(std::string_view token, DetectorOptions* options);

/// A double as its own string, in WriteRoundTrip's 17-digit form
/// (common/parse.h): printf("%.17g")'s bytes, from the integer kernel or,
/// outside its range, std::to_chars. The wire format for scores,
/// probabilities and timings, and the text used in cache keys. Hot paths
/// write into their response buffer instead.
std::string FormatRoundTrip(double value);

/// The most bytes one ranked row "rank node score\n" of a detect or truth
/// response takes: a 64-bit rank, a NodeId and a score, each at its widest.
inline constexpr std::size_t kMaxRankedRowBytes =
    kMaxDecimalChars + 1 + (std::numeric_limits<NodeId>::digits10 + 1) + 1 +
    kMaxRoundTripChars + 1;
static_assert(kMaxRankedRowBytes == 20 + 1 + 10 + 1 + 24 + 1);

/// Writes one ranked row, "rank node score\n", at `out`, which must have
/// room for kMaxRankedRowBytes; returns one past the last byte written.
char* WriteRankedRow(char* out, uint64_t rank, NodeId node, double score);

/// Drops the wall-clock "time=<float>" token from one response line —
/// the protocol's ONLY nondeterministic bytes. The canonical normalizer
/// for transcript comparison: the concurrency tests and benches assert
/// responses bit-identical modulo exactly this. If the protocol ever
/// gains another nondeterministic token, extend this in one place.
std::string StripWallClockTokens(const std::string& line);

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_PROTOCOL_H_
