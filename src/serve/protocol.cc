#include "serve/protocol.h"

#include <utility>
#include <vector>

#include "common/parse.h"

namespace vulnds::serve {

namespace {

// operator>>'s separators in the C locale: space, \t, \n, \v, \f, \r.
bool IsSeparator(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// A request's tokens as views into its line. Every well-formed request fits
// the inline slots; a longer line spills the rest to the heap.
class Tokens {
 public:
  // Splits at separator runs; a token that starts with '#' ends the line.
  explicit Tokens(std::string_view line) {
    std::size_t pos = 0;
    for (;;) {
      while (pos < line.size() && IsSeparator(line[pos])) ++pos;
      if (pos == line.size() || line[pos] == '#') break;
      const std::size_t begin = pos;
      while (pos < line.size() && !IsSeparator(line[pos])) ++pos;
      const std::string_view token = line.substr(begin, pos - begin);
      if (size_ < kInline) {
        inline_[size_] = token;
      } else {
        spill_.push_back(token);
      }
      ++size_;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::string_view operator[](std::size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }

 private:
  static constexpr std::size_t kInline = 16;
  std::string_view inline_[kInline];
  std::vector<std::string_view> spill_;
  std::size_t size_ = 0;
};

Status WrongArity(const char* usage) {
  return Status::InvalidArgument(std::string("usage: ") + usage);
}

Result<std::size_t> ParseCount(std::string_view token, const char* what) {
  Result<uint64_t> v = ParseUint64(token);
  if (!v.ok()) {
    return Status::InvalidArgument(std::string(what) + ": " + v.status().message());
  }
  return static_cast<std::size_t>(*v);
}

Result<NodeId> ParseNode(std::string_view token, const char* what) {
  Result<uint64_t> v = ParseUint64(token);
  if (!v.ok()) {
    return Status::InvalidArgument(std::string(what) + ": " + v.status().message());
  }
  if (*v > static_cast<uint64_t>(kInvalidNode) - 1) {
    return Status::OutOfRange(std::string(what) + ": node id " +
                              std::string(token) +
                              " exceeds the 32-bit id space");
  }
  return static_cast<NodeId>(*v);
}

Result<double> ParseProb(std::string_view token) {
  Result<double> v = ParseDouble(token);
  if (!v.ok()) {
    return Status::InvalidArgument(std::string("prob: ") + v.status().message());
  }
  return v;
}

}  // namespace

const char* ServeCommandName(ServeCommand command) {
  switch (command) {
    case ServeCommand::kLoad:
      return "load";
    case ServeCommand::kSave:
      return "save";
    case ServeCommand::kDetect:
      return "detect";
    case ServeCommand::kTruth:
      return "truth";
    case ServeCommand::kStats:
      return "stats";
    case ServeCommand::kMetrics:
      return "metrics";
    case ServeCommand::kCatalog:
      return "catalog";
    case ServeCommand::kEvict:
      return "evict";
    case ServeCommand::kAddEdge:
      return "addedge";
    case ServeCommand::kDelEdge:
      return "deledge";
    case ServeCommand::kSetProb:
      return "setprob";
    case ServeCommand::kCommit:
      return "commit";
    case ServeCommand::kVersions:
      return "versions";
    case ServeCommand::kShutdown:
      return "shutdown";
    case ServeCommand::kQuit:
      return "quit";
    case ServeCommand::kNone:
      break;
  }
  return "none";
}

Result<Method> ParseMethodToken(std::string_view name) {
  // Lowercased once, not per request: building MethodName's strings on every
  // call cost a third of a detect line's parse.
  static const std::vector<std::pair<std::string, Method>> kLowerNames = [] {
    std::vector<std::pair<std::string, Method>> names;
    for (const Method m : AllMethods()) {
      names.emplace_back(AsciiLower(MethodName(m)), m);
    }
    return names;
  }();
  for (const auto& [lower, method] : kLowerNames) {
    if (EqualsIgnoreCase(name, lower)) return method;
  }
  return Status::InvalidArgument("unknown method '" + std::string(name) + "'");
}

Status ApplyDetectFlag(std::string_view token, DetectorOptions* options) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
    return Status::InvalidArgument("expected key=value, got '" +
                                   std::string(token) + "'");
  }
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = token.substr(eq + 1);
  if (EqualsIgnoreCase(key, "method")) {
    Result<Method> m = ParseMethodToken(value);
    if (!m.ok()) return m.status();
    options->method = *m;
    return Status::OK();
  }
  const bool eps = EqualsIgnoreCase(key, "eps");
  if (eps || EqualsIgnoreCase(key, "delta")) {
    Result<double> v = ParseDouble(value);
    if (!v.ok()) return v.status();
    (eps ? options->eps : options->delta) = *v;
    return Status::OK();
  }
  if (EqualsIgnoreCase(key, "seed")) {
    Result<uint64_t> v = ParseUint64(value);
    if (!v.ok()) return v.status();
    options->seed = *v;
    return Status::OK();
  }
  if (EqualsIgnoreCase(key, "samples")) {
    Result<std::size_t> v = ParseCount(value, "samples");
    if (!v.ok()) return v.status();
    options->naive_samples = *v;
    return Status::OK();
  }
  if (EqualsIgnoreCase(key, "simd")) {
    // Execution knob, not identity: every kernel tier computes
    // bit-identical results (simd/coin_kernels.h contract), so this never
    // fragments the result cache.
    Result<simd::SimdMode> m = simd::ParseSimdMode(std::string(value));
    if (!m.ok()) return m.status();
    options->simd_mode = *m;
    return Status::OK();
  }
  const bool order = EqualsIgnoreCase(key, "order");
  if (order || EqualsIgnoreCase(key, "bk")) {
    // ParseInt32 rejects values outside int range instead of truncating.
    Result<int> v = ParseInt32(value);
    if (!v.ok()) return v.status();
    (order ? options->bound_order : options->bk) = *v;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown detect flag '" +
                                 AsciiLower(std::string(key)) + "'");
}

std::string FormatRoundTrip(double value) {
  char buf[kMaxRoundTripChars];
  return std::string(buf, WriteRoundTrip(buf, value));
}

char* WriteRankedRow(char* out, uint64_t rank, NodeId node, double score) {
  out = WriteDecimal(out, rank);
  *out++ = ' ';
  out = WriteDecimal(out, node);
  *out++ = ' ';
  out = WriteRoundTrip(out, score);
  *out++ = '\n';
  return out;
}

Result<ServeRequest> ParseServeRequest(std::string_view line) {
  const Tokens tokens(line);
  ServeRequest request;
  if (tokens.empty()) return request;  // kNone

  const std::string_view verb = tokens[0];
  const auto is = [&](std::string_view lower) {
    return EqualsIgnoreCase(verb, lower);
  };
  if (is("quit") || is("exit")) {
    if (tokens.size() != 1) return WrongArity("quit");
    request.command = ServeCommand::kQuit;
    return request;
  }
  if (is("shutdown")) {
    if (tokens.size() != 1) return WrongArity("shutdown");
    request.command = ServeCommand::kShutdown;
    return request;
  }
  if (is("catalog")) {
    if (tokens.size() != 1) return WrongArity("catalog");
    request.command = ServeCommand::kCatalog;
    return request;
  }
  if (is("load")) {
    if (tokens.size() != 3) return WrongArity("load <name> <path>");
    request.command = ServeCommand::kLoad;
    request.name = tokens[1];
    request.path = tokens[2];
    return request;
  }
  if (is("save")) {
    if (tokens.size() < 3 || tokens.size() > 4) {
      return WrongArity("save <name> <path> [text|binary]");
    }
    request.command = ServeCommand::kSave;
    request.name = tokens[1];
    request.path = tokens[2];
    if (tokens.size() == 4) {
      if (EqualsIgnoreCase(tokens[3], "text")) {
        request.format = GraphFileFormat::kText;
      } else if (EqualsIgnoreCase(tokens[3], "binary")) {
        request.format = GraphFileFormat::kBinary;
      } else {
        return Status::InvalidArgument("unknown format '" +
                                       std::string(tokens[3]) +
                                       "' (want text|binary)");
      }
    }
    return request;
  }
  if (is("stats")) {
    if (tokens.size() > 2) return WrongArity("stats [<name>]");
    request.command = ServeCommand::kStats;
    if (tokens.size() == 2) request.name = tokens[1];
    return request;
  }
  if (is("metrics")) {
    if (tokens.size() != 1) return WrongArity("metrics");
    request.command = ServeCommand::kMetrics;
    return request;
  }
  if (is("evict")) {
    if (tokens.size() != 2) return WrongArity("evict <name>");
    request.command = ServeCommand::kEvict;
    request.name = tokens[1];
    return request;
  }
  if (is("addedge") || is("setprob")) {
    const bool add = is("addedge");
    if (tokens.size() != 5) {
      return WrongArity(add ? "addedge <name> <src> <dst> <prob>"
                            : "setprob <name> <src> <dst> <prob>");
    }
    request.command = add ? ServeCommand::kAddEdge : ServeCommand::kSetProb;
    request.name = tokens[1];
    Result<NodeId> src = ParseNode(tokens[2], "src");
    if (!src.ok()) return src.status();
    Result<NodeId> dst = ParseNode(tokens[3], "dst");
    if (!dst.ok()) return dst.status();
    Result<double> prob = ParseProb(tokens[4]);
    if (!prob.ok()) return prob.status();
    request.src = *src;
    request.dst = *dst;
    request.prob = *prob;
    return request;
  }
  if (is("deledge")) {
    if (tokens.size() != 4) return WrongArity("deledge <name> <src> <dst>");
    request.command = ServeCommand::kDelEdge;
    request.name = tokens[1];
    Result<NodeId> src = ParseNode(tokens[2], "src");
    if (!src.ok()) return src.status();
    Result<NodeId> dst = ParseNode(tokens[3], "dst");
    if (!dst.ok()) return dst.status();
    request.src = *src;
    request.dst = *dst;
    return request;
  }
  if (is("commit")) {
    if (tokens.size() != 2) return WrongArity("commit <name>");
    request.command = ServeCommand::kCommit;
    request.name = tokens[1];
    return request;
  }
  if (is("versions")) {
    if (tokens.size() != 2) return WrongArity("versions <name>");
    request.command = ServeCommand::kVersions;
    request.name = tokens[1];
    return request;
  }
  if (is("detect")) {
    if (tokens.size() < 3) {
      return WrongArity("detect <name> <k> [method] [key=value ...]");
    }
    request.command = ServeCommand::kDetect;
    request.name = tokens[1];
    Result<std::size_t> k = ParseCount(tokens[2], "k");
    if (!k.ok()) return k.status();
    request.options.k = *k;
    std::size_t next = 3;
    if (next < tokens.size() &&
        tokens[next].find('=') == std::string_view::npos) {
      // Bare method name, matching the batch CLI's positional style.
      Result<Method> m = ParseMethodToken(tokens[next]);
      if (!m.ok()) return m.status();
      request.options.method = *m;
      ++next;
    }
    for (; next < tokens.size(); ++next) {
      VULNDS_RETURN_NOT_OK(ApplyDetectFlag(tokens[next], &request.options));
    }
    return request;
  }
  if (is("truth")) {
    if (tokens.size() < 3 || tokens.size() > 5) {
      return WrongArity("truth <name> <k> [samples] [seed]");
    }
    request.command = ServeCommand::kTruth;
    request.name = tokens[1];
    Result<std::size_t> k = ParseCount(tokens[2], "k");
    if (!k.ok()) return k.status();
    request.k = *k;
    if (tokens.size() > 3) {
      Result<std::size_t> samples = ParseCount(tokens[3], "samples");
      if (!samples.ok()) return samples.status();
      request.samples = *samples;
    }
    if (tokens.size() > 4) {
      Result<uint64_t> seed = ParseUint64(tokens[4]);
      if (!seed.ok()) return seed.status();
      request.seed = *seed;
    }
    return request;
  }
  return Status::InvalidArgument("unknown command '" + std::string(verb) +
                                 "'");
}

std::string StripWallClockTokens(const std::string& line) {
  // Erase exactly the "time=<value>" token spans (plus one adjoining
  // separator space), leaving every other byte — including spacing —
  // untouched, so "modulo time=" comparisons stay bitwise-strong.
  std::string out = line;
  std::size_t pos = 0;
  while ((pos = out.find("time=", pos)) != std::string::npos) {
    if (pos != 0 && out[pos - 1] != ' ') {  // substring of a larger token
      pos += 5;
      continue;
    }
    std::size_t end = out.find(' ', pos);
    if (end == std::string::npos) end = out.size();
    std::size_t begin = pos;
    if (begin > 0) {
      --begin;  // absorb the separator before the token
    } else if (end < out.size()) {
      ++end;  // token at line start: absorb the separator after it
    }
    out.erase(begin, end - begin);
    pos = begin;
  }
  return out;
}

}  // namespace vulnds::serve
