#include "graph/graph_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/parse.h"
#include "graph/builder.h"

namespace vulnds {

namespace {

// Skips whitespace and '#'-to-end-of-line comments.
void SkipCommentsAndSpace(std::istream& in) {
  for (;;) {
    const int c = in.peek();
    if (c == '#') {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    } else if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      in.get();
    } else {
      return;
    }
  }
}

template <typename T>
Status ReadToken(std::istream& in, T* out, const char* what) {
  SkipCommentsAndSpace(in);
  if (!(in >> *out)) {
    return Status::IOError(std::string("failed to read ") + what);
  }
  return Status::OK();
}

// --- binary helpers --------------------------------------------------------

constexpr char kBinaryMagic[8] = {'V', 'U', 'L', 'N', 'D', 'S', 'G', '\n'};
constexpr uint32_t kBinaryVersion = 2;

// The dump is defined as little-endian; on the (rare) big-endian host we
// refuse rather than silently write a byte-swapped file.
Status CheckLittleEndian() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented("binary snapshots require a little-endian host");
  }
  return Status::OK();
}

// magic + u32 version + u64 n + u64 m.
constexpr std::size_t kBinaryHeaderBytes =
    sizeof(kBinaryMagic) + sizeof(uint32_t) + 2 * sizeof(uint64_t);

// Offsets are read straight into the graph's own size_t column.
static_assert(sizeof(std::size_t) == sizeof(uint64_t),
              "v2 offsets are u64 and adopted as size_t");

// Rejects a version or dimensions no v2 snapshot can carry.
Status CheckBinaryHeader(uint32_t version, uint64_t n, uint64_t m) {
  if (version != kBinaryVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  if (n > std::numeric_limits<NodeId>::max() ||
      m > std::numeric_limits<EdgeId>::max()) {
    return Status::InvalidArgument("snapshot dimensions exceed id width");
  }
  return Status::OK();
}

// Bytes after the header of a v2 snapshot of n nodes and m edges. Cannot
// overflow: CheckBinaryHeader bounds n and m to 32 bits.
uint64_t BinaryPayloadBytes(uint64_t n, uint64_t m) {
  return n * sizeof(double) +                              // risks
         (n + 1) * sizeof(uint64_t) +                      // offsets
         m * (2 * sizeof(uint32_t) + sizeof(double));      // dsts, probs, ids
}

// The five v2 columns, as read off disk and not yet trusted.
struct BinaryColumns {
  std::vector<double> risks;
  std::vector<std::size_t> offsets;
  std::vector<uint32_t> dsts;
  std::vector<double> probs;
  std::vector<uint32_t> edge_ids;
};

// Validates every probability and every CSR invariant the builder would
// have enforced on a text load, naming the offending index, then assembles
// the graph. `cols` must hold n risks, n + 1 offsets and m of each arc
// column.
Result<UncertainGraph> AssembleBinary(BinaryColumns cols) {
  const std::size_t n = cols.risks.size();
  const std::size_t m = cols.dsts.size();
  const std::vector<double>& risks = cols.risks;
  const std::vector<std::size_t>& offsets = cols.offsets;
  const std::vector<uint32_t>& dsts = cols.dsts;
  const std::vector<double>& probs = cols.probs;
  const std::vector<uint32_t>& edge_ids = cols.edge_ids;
  for (std::size_t v = 0; v < n; ++v) {
    if (!(risks[v] >= 0.0 && risks[v] <= 1.0)) {  // NaN fails both
      return Status::InvalidArgument(
          "corrupt snapshot: self-risk of node " + std::to_string(v) + " is " +
          std::to_string(risks[v]) + ", outside [0,1]");
    }
  }
  if (offsets[0] != 0) {
    return Status::InvalidArgument("corrupt snapshot: CSR offset 0 is " +
                                   std::to_string(offsets[0]) + ", want 0");
  }
  if (offsets[n] != m) {
    return Status::InvalidArgument(
        "corrupt snapshot: CSR offset " + std::to_string(n) + " is " +
        std::to_string(offsets[n]) + ", want edge count " + std::to_string(m));
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument(
          "corrupt snapshot: CSR offsets decrease at node " + std::to_string(v));
    }
  }

  // Recover the insertion-order edge list through the edge-id column while
  // checking it is a permutation of [0, m); simultaneously validate each
  // arc's endpoint and probability and the builder's canonical within-group
  // order (ascending edge id), which samplers rely on for bit-identical
  // coin-flip sequences.
  std::vector<UncertainEdge> edge_list(m);
  std::vector<Arc> out_arcs(m);
  std::vector<char> seen(m, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const uint32_t dst = dsts[i];
      const double prob = probs[i];
      const uint32_t e = edge_ids[i];
      if (dst >= n) {
        return Status::InvalidArgument(
            "corrupt snapshot: arc " + std::to_string(i) + " points at node " +
            std::to_string(dst) + " outside the graph of " + std::to_string(n) +
            " nodes");
      }
      if (dst == v) {
        return Status::InvalidArgument("corrupt snapshot: arc " +
                                       std::to_string(i) + " is a self-loop on node " +
                                       std::to_string(v));
      }
      if (!(prob >= 0.0 && prob <= 1.0)) {  // NaN fails both
        return Status::InvalidArgument(
            "corrupt snapshot: arc " + std::to_string(i) + " has probability " +
            std::to_string(prob) + ", outside [0,1]");
      }
      if (e >= m || seen[e]) {
        return Status::InvalidArgument(
            "corrupt snapshot: edge ids are not a permutation (arc " +
            std::to_string(i) + " carries id " + std::to_string(e) + ")");
      }
      if (i > offsets[v] && edge_ids[i - 1] >= e) {
        return Status::InvalidArgument(
            "corrupt snapshot: edge ids of node " + std::to_string(v) +
            " not ascending at arc " + std::to_string(i));
      }
      seen[e] = 1;
      edge_list[e] = UncertainEdge{v, dst, prob};
      out_arcs[i] = Arc{dst, prob, e};
    }
  }

  // The reverse CSR is rebuilt through the builder's own canonical helper,
  // so the snapshot path can never drift from a from-scratch build.
  // FromParts adopts the columns directly — no counting sort, no per-edge
  // revalidation — which keeps snapshot loads I/O-bound.
  std::vector<std::size_t> in_offsets;
  std::vector<Arc> in_arcs;
  BuildInCsr(edge_list, n, &in_offsets, &in_arcs);
  return UncertainGraph::FromParts(
      std::move(cols.risks), std::move(cols.offsets), std::move(out_arcs),
      std::move(in_offsets), std::move(in_arcs), std::move(edge_list));
}

// The text format, built in a bounded buffer and handed to the sink in
// chunks. Every double takes the 17-digit round-trip form, so the snapshot
// re-reads to the same bits.
Status EncodeGraphText(const UncertainGraph& graph, ByteSink& sink) {
  constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::string text = "vulnds-graph 1\n";
  Status status;
  const auto flush_if_full = [&] {
    if (text.size() < kChunkBytes || !status.ok()) return;
    status = sink.Append(text.data(), text.size());
    text.clear();
  };
  const std::size_t n = graph.num_nodes();
  AppendDecimal(&text, n);
  text += ' ';
  AppendDecimal(&text, graph.num_edges());
  text += '\n';
  for (NodeId v = 0; v < n; ++v) {
    AppendRoundTrip(&text, graph.self_risk(v));
    text += v + 1 == n ? '\n' : ' ';
    flush_if_full();
  }
  if (n == 0) text += '\n';
  for (const UncertainEdge& e : graph.edges()) {
    AppendDecimal(&text, e.src);
    text += ' ';
    AppendDecimal(&text, e.dst);
    text += ' ';
    AppendRoundTrip(&text, e.prob);
    text += '\n';
    flush_if_full();
  }
  VULNDS_RETURN_NOT_OK(status);
  return sink.Append(text.data(), text.size());
}

}  // namespace

Status WriteGraph(const UncertainGraph& graph, std::ostream& out) {
  class StreamSink final : public ByteSink {
   public:
    explicit StreamSink(std::ostream& out) : out_(out) {}
    Status Append(const void* data, std::size_t len) override {
      out_.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(len));
      return out_ ? Status::OK() : Status::IOError("stream write failed");
    }

   private:
    std::ostream& out_;
  } sink(out);
  return EncodeGraphText(graph, sink);
}

Status EncodeGraphBinary(const UncertainGraph& graph, ByteSink& sink) {
  VULNDS_RETURN_NOT_OK(CheckLittleEndian());
  const uint64_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  char header[kBinaryHeaderBytes];
  std::memcpy(header, kBinaryMagic, sizeof(kBinaryMagic));
  std::memcpy(header + 8, &kBinaryVersion, sizeof(kBinaryVersion));
  std::memcpy(header + 12, &n, sizeof(n));
  std::memcpy(header + 20, &m, sizeof(m));
  VULNDS_RETURN_NOT_OK(sink.Append(header, sizeof(header)));
  const std::span<const double> risks = graph.self_risks();
  VULNDS_RETURN_NOT_OK(sink.Append(risks.data(), risks.size_bytes()));

  // The other columns are projected out of the CSR through a bounded
  // chunk, so a save issued to a serving process never doubles the graph's
  // footprint. `value_at` is called for 0, 1, ..., count - 1 in order.
  const auto put_column = [&](std::size_t count, auto value_at) -> Status {
    std::array<decltype(value_at(0)), 4096> chunk;
    for (std::size_t i = 0; i < count; i += chunk.size()) {
      const std::size_t len = std::min(chunk.size(), count - i);
      for (std::size_t j = 0; j < len; ++j) chunk[j] = value_at(i + j);
      VULNDS_RETURN_NOT_OK(sink.Append(chunk.data(), len * sizeof(chunk[0])));
    }
    return Status::OK();
  };
  uint64_t offset = 0;
  VULNDS_RETURN_NOT_OK(put_column(n + 1, [&](std::size_t v) {
    if (v > 0) offset += graph.OutDegree(static_cast<NodeId>(v - 1));
    return offset;
  }));
  const std::span<const Arc> arcs = graph.out_arcs();
  VULNDS_RETURN_NOT_OK(
      put_column(m, [&](std::size_t i) { return arcs[i].neighbor; }));
  VULNDS_RETURN_NOT_OK(
      put_column(m, [&](std::size_t i) { return arcs[i].prob; }));
  return put_column(m, [&](std::size_t i) { return arcs[i].edge; });
}

Status WriteGraphFile(const UncertainGraph& graph, const std::string& path,
                      GraphFileFormat format) {
  // Saves, conversions and journal side files are durable state (a journal
  // version record points at its side file), so they are fsynced before
  // the rename publishes them.
  AtomicFileOptions options;
  options.fsync = true;
  options.open_failpoint = fail::points::kSnapshotWriteOpen;
  options.write_failpoint = fail::points::kSnapshotWriteData;
  options.fsync_failpoint = fail::points::kSnapshotWriteFsync;
  options.rename_failpoint = fail::points::kSnapshotWriteRename;
  return ReplaceFileAtomic(path, options, [&](ByteSink& out) {
    return format == GraphFileFormat::kBinary ? EncodeGraphBinary(graph, out)
                                              : EncodeGraphText(graph, out);
  });
}

Result<UncertainGraph> ReadGraph(std::istream& in) {
  std::string magic;
  int version = 0;
  VULNDS_RETURN_NOT_OK(ReadToken(in, &magic, "magic"));
  if (magic != "vulnds-graph") {
    return Status::InvalidArgument("bad magic '" + magic + "'");
  }
  VULNDS_RETURN_NOT_OK(ReadToken(in, &version, "version"));
  if (version != 1) {
    return Status::InvalidArgument("unsupported version " + std::to_string(version));
  }
  std::size_t n = 0;
  std::size_t m = 0;
  VULNDS_RETURN_NOT_OK(ReadToken(in, &n, "node count"));
  VULNDS_RETURN_NOT_OK(ReadToken(in, &m, "edge count"));
  // The self-risks are read before anything is sized from `n`, so memory
  // grows only as tokens arrive: a forged node count fails when the input
  // ends, never by allocating for nodes that are not there.
  std::vector<double> risks;
  for (std::size_t v = 0; v < n; ++v) {
    double p = 0.0;
    VULNDS_RETURN_NOT_OK(ReadToken(in, &p, "self-risk"));
    risks.push_back(p);
  }
  UncertainGraphBuilder builder(n);
  for (std::size_t v = 0; v < n; ++v) {
    VULNDS_RETURN_NOT_OK(builder.SetSelfRisk(static_cast<NodeId>(v), risks[v]));
  }
  for (std::size_t i = 0; i < m; ++i) {
    NodeId src = 0;
    NodeId dst = 0;
    double p = 0.0;
    VULNDS_RETURN_NOT_OK(ReadToken(in, &src, "edge src"));
    VULNDS_RETURN_NOT_OK(ReadToken(in, &dst, "edge dst"));
    VULNDS_RETURN_NOT_OK(ReadToken(in, &p, "edge prob"));
    VULNDS_RETURN_NOT_OK(builder.AddEdge(src, dst, p));
  }
  return builder.Build();
}

Result<UncertainGraph> ReadGraphPage(
    const std::string& path, std::optional<uint32_t> expected_crc,
    const std::function<void()>& before_alloc) {
  VULNDS_RETURN_NOT_OK(CheckLittleEndian());
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " + std::strerror(errno));
  }
  struct FdCloser {
    explicit FdCloser(int owned) : fd(owned) {}
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;
    ~FdCloser() { ::close(fd); }
    int fd;
  } closer(fd);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
  }
  const auto file_bytes = static_cast<uint64_t>(st.st_size);
  const auto corrupt = [&](const std::string& what) {
    return Status::InvalidArgument("corrupt snapshot " + path + ": " + what);
  };

  // Reads exactly `len` bytes into `dst` in bounded chunks, extending `crc`
  // (when one is expected) over each chunk while it is still in cache. A
  // file that ends early is corrupt (it shrank since the size check), not
  // an IO failure.
  uint32_t crc = 0;
  const auto read_exact = [&](void* dst, std::size_t len) -> Status {
    constexpr std::size_t kChunkBytes = std::size_t{1} << 18;
    auto* out = static_cast<char*>(dst);
    while (len > 0) {
      const ssize_t got = ::read(fd, out, std::min(len, kChunkBytes));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("read of " + path +
                               " failed: " + std::strerror(errno));
      }
      if (got == 0) return corrupt("file ends early");
      if (expected_crc) {
        crc = Crc32Extend(crc, out, static_cast<std::size_t>(got));
      }
      out += got;
      len -= static_cast<std::size_t>(got);
    }
    return Status::OK();
  };

  if (file_bytes < kBinaryHeaderBytes) return corrupt("header truncated");
  char header[kBinaryHeaderBytes] = {};
  VULNDS_RETURN_NOT_OK(read_exact(header, sizeof(header)));
  if (std::memcmp(header, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return corrupt("bad magic");
  }
  uint32_t version = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  std::memcpy(&n, header + 12, sizeof(n));
  std::memcpy(&m, header + 20, sizeof(m));
  if (const Status ok = CheckBinaryHeader(version, n, m); !ok.ok()) {
    return corrupt(ok.message());
  }
  // The file is exactly one snapshot: its length is fixed by the header,
  // and is checked before any column is allocated.
  const uint64_t expected_bytes = kBinaryHeaderBytes + BinaryPayloadBytes(n, m);
  if (file_bytes != expected_bytes) {
    return corrupt("header declares " + std::to_string(expected_bytes) +
                   " bytes, file has " + std::to_string(file_bytes));
  }

  if (before_alloc) before_alloc();
  BinaryColumns cols;
  const auto read_column = [&](auto* column, std::size_t count) {
    column->resize(count);
    return read_exact(column->data(), count * sizeof(column->front()));
  };
  VULNDS_RETURN_NOT_OK(read_column(&cols.risks, n));
  VULNDS_RETURN_NOT_OK(read_column(&cols.offsets, n + 1));
  VULNDS_RETURN_NOT_OK(read_column(&cols.dsts, m));
  VULNDS_RETURN_NOT_OK(read_column(&cols.probs, m));
  VULNDS_RETURN_NOT_OK(read_column(&cols.edge_ids, m));
  if (expected_crc && crc != *expected_crc) return corrupt("CRC mismatch");
  return AssembleBinary(std::move(cols));
}

Result<UncertainGraph> ReadGraphFile(const std::string& path) {
  if (const auto o = fail::Check(fail::points::kSnapshotRead);
      o != fail::Outcome::kNone) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  {
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in) return Status::IOError("cannot open " + path);
    char magic[sizeof(kBinaryMagic)] = {};
    in.read(magic, sizeof(magic));
    const bool binary =
        in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
    if (!binary) {
      in.clear();
      in.seekg(0);
      return ReadGraph(in);
    }
  }
  return ReadGraphPage(path);
}

}  // namespace vulnds
