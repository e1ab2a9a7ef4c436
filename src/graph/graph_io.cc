#include "graph/graph_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
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

template <typename T>
void PutPod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void PutArray(std::ostream& out, const std::vector<T>& values) {
  if (values.empty()) return;
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
Status GetPod(std::istream& in, T* value, const char* what) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) {
    return Status::IOError(std::string("truncated snapshot: ") + what);
  }
  return Status::OK();
}

// Reads `count` elements in bounded chunks, so memory grows only as data
// actually arrives: a forged element count on a non-seekable stream (where
// the up-front size check cannot run) fails with IOError when the stream
// ends, never by over-allocating first.
template <typename T>
Status GetArray(std::istream& in, std::vector<T>* values, std::size_t count,
                const char* what) {
  constexpr std::size_t kChunkElements = (std::size_t{1} << 20) / sizeof(T);
  values->clear();
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min(count - done, kChunkElements);
    values->resize(done + chunk);
    const auto bytes = static_cast<std::streamsize>(chunk * sizeof(T));
    in.read(reinterpret_cast<char*>(values->data() + done), bytes);
    if (in.gcount() != bytes) {
      return Status::IOError(std::string("truncated snapshot: ") + what);
    }
    done += chunk;
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
// the graph. Snapshot loads and spill pages both end here, so they cannot
// drift apart. `cols` must hold n risks, n + 1 offsets and m of each arc
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

}  // namespace

Status WriteGraph(const UncertainGraph& graph, std::ostream& out) {
  // Text is built in a bounded buffer and written in chunks; every double
  // takes the 17-digit round-trip form, so the snapshot re-reads to the
  // same bits.
  constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::string text = "vulnds-graph 1\n";
  const auto flush_if_full = [&] {
    if (text.size() < kChunkBytes) return;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
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
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteGraphBinary(const UncertainGraph& graph, std::ostream& out) {
  VULNDS_RETURN_NOT_OK(CheckLittleEndian());
  const std::size_t n = graph.num_nodes();
  const std::size_t m = graph.num_edges();

  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  PutPod(out, kBinaryVersion);
  PutPod(out, static_cast<uint64_t>(n));
  PutPod(out, static_cast<uint64_t>(m));

  // Stream each column straight out of the CSR through a bounded buffer, so
  // a save issued to a serving process never doubles the graph's footprint.
  const std::span<const double> risks = graph.self_risks();
  if (!risks.empty()) {
    out.write(reinterpret_cast<const char*>(risks.data()),
              static_cast<std::streamsize>(risks.size() * sizeof(double)));
  }

  const auto write_column = [&](auto project) {
    using T = decltype(project(std::declval<const Arc&>()));
    std::vector<T> buffer;
    buffer.reserve(std::min<std::size_t>(m, std::size_t{1} << 16));
    for (NodeId v = 0; v < n; ++v) {
      for (const Arc& arc : graph.OutArcs(v)) {
        buffer.push_back(project(arc));
        if (buffer.size() == buffer.capacity()) {
          PutArray(out, buffer);
          buffer.clear();
        }
      }
    }
    PutArray(out, buffer);
  };

  uint64_t offset = 0;
  PutPod(out, offset);
  for (NodeId v = 0; v < n; ++v) {
    offset += graph.OutDegree(v);
    PutPod(out, offset);
  }
  write_column([](const Arc& arc) { return arc.neighbor; });
  write_column([](const Arc& arc) { return arc.prob; });
  write_column([](const Arc& arc) { return arc.edge; });

  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteGraphFile(const UncertainGraph& graph, const std::string& path,
                      GraphFileFormat format) {
  // Crash-safe: write a sibling temp file, fsync it, then rename() over the
  // destination. A reader (or a restart paging a spilled snapshot back in)
  // therefore only ever sees the complete old file or the complete new one —
  // never a truncated snapshot that ReadGraphBinary would reject. The temp
  // name is pid- and serial-qualified so concurrent writers to one path
  // cannot clobber each other's temp file.
  static std::atomic<uint64_t> temp_serial{0};
  const std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
  if (const auto o = fail::Check(fail::points::kSnapshotWriteOpen);
      o != fail::Outcome::kNone) {
    return Status::IOError("cannot open " + temp_path + " for writing: " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  {
    std::ofstream out(temp_path, format == GraphFileFormat::kBinary
                                     ? std::ios::out | std::ios::binary
                                     : std::ios::out);
    if (!out) {
      return Status::IOError("cannot open " + temp_path + " for writing");
    }
    Status written = format == GraphFileFormat::kBinary
                         ? WriteGraphBinary(graph, out)
                         : WriteGraph(graph, out);
    if (written.ok()) {
      if (const auto o = fail::Check(fail::points::kSnapshotWriteData);
          o != fail::Outcome::kNone) {
        // kShortWrite leaves the truncated temp behind the error so callers
        // see the same world a crashed writer leaves: a temp file that never
        // got renamed over the destination.
        written =
            Status::IOError("write to " + temp_path + " failed: " +
                            std::strerror(fail::InjectedErrno(o)) +
                            " (injected)");
      }
    }
    if (written.ok()) out.flush();
    if (!written.ok() || !out) {
      out.close();
      std::remove(temp_path.c_str());
      return written.ok() ? Status::IOError("write to " + temp_path + " failed")
                          : written;
    }
  }
  // ofstream has no portable fsync; reopen the flushed file by fd to force
  // its bytes down before the rename publishes it.
  if (const auto o = fail::Check(fail::points::kSnapshotWriteFsync);
      o != fail::Outcome::kNone) {
    std::remove(temp_path.c_str());
    return Status::IOError("cannot fsync " + temp_path + ": " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  const int fd = ::open(temp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (const auto o = fail::Check(fail::points::kSnapshotWriteRename);
      o != fail::Outcome::kNone) {
    std::remove(temp_path.c_str());
    return Status::IOError("cannot rename " + temp_path + " to " + path +
                           ": " + std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    return Status::IOError("cannot rename " + temp_path + " to " + path);
  }
  return Status::OK();
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
  UncertainGraphBuilder builder(n);
  for (std::size_t v = 0; v < n; ++v) {
    double p = 0.0;
    VULNDS_RETURN_NOT_OK(ReadToken(in, &p, "self-risk"));
    VULNDS_RETURN_NOT_OK(builder.SetSelfRisk(static_cast<NodeId>(v), p));
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

Result<UncertainGraph> ReadGraphBinary(std::istream& in) {
  VULNDS_RETURN_NOT_OK(CheckLittleEndian());
  char magic[sizeof(kBinaryMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("bad binary snapshot magic");
  }
  uint32_t version = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  VULNDS_RETURN_NOT_OK(GetPod(in, &version, "version"));
  VULNDS_RETURN_NOT_OK(GetPod(in, &n, "node count"));
  VULNDS_RETURN_NOT_OK(GetPod(in, &m, "edge count"));
  VULNDS_RETURN_NOT_OK(CheckBinaryHeader(version, n, m));

  // Bound the declared payload against the actual stream size before any
  // allocation: a corrupt or hostile header must fail cleanly, not OOM the
  // serving process.
  const uint64_t expected_bytes = BinaryPayloadBytes(n, m);
  const std::istream::pos_type data_pos = in.tellg();
  if (data_pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = in.tellg();
    in.seekg(data_pos);
    if (end_pos == std::istream::pos_type(-1) ||
        static_cast<uint64_t>(end_pos - data_pos) < expected_bytes) {
      return Status::IOError("truncated snapshot: header declares " +
                             std::to_string(expected_bytes) +
                             " payload bytes, stream has fewer");
    }
  }

  BinaryColumns cols;
  VULNDS_RETURN_NOT_OK(GetArray(in, &cols.risks, n, "self risks"));
  VULNDS_RETURN_NOT_OK(GetArray(in, &cols.offsets, n + 1, "CSR offsets"));
  VULNDS_RETURN_NOT_OK(GetArray(in, &cols.dsts, m, "arc destinations"));
  VULNDS_RETURN_NOT_OK(GetArray(in, &cols.probs, m, "arc probabilities"));
  VULNDS_RETURN_NOT_OK(GetArray(in, &cols.edge_ids, m, "arc edge ids"));
  return AssembleBinary(std::move(cols));
}

Result<UncertainGraph> ReadGraphPage(
    const std::string& path, uint32_t expected_crc,
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
    return Status::InvalidArgument("corrupt spill page " + path + ": " + what);
  };

  // Reads exactly `len` bytes into `dst` in bounded chunks, extending `crc`
  // over each chunk while it is still in cache. A file that ends early is
  // corrupt (it shrank since the size check), not an IO failure.
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
      crc = Crc32Extend(crc, out, static_cast<std::size_t>(got));
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
  // The page is exactly one snapshot: its length is fixed by the header,
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
  if (crc != expected_crc) return corrupt("CRC mismatch");
  return AssembleBinary(std::move(cols));
}

Result<UncertainGraph> ReadGraphFile(const std::string& path) {
  if (const auto o = fail::Check(fail::points::kSnapshotRead);
      o != fail::Outcome::kNone) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[sizeof(kBinaryMagic)] = {};
  in.read(magic, sizeof(magic));
  const bool binary = in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
                      std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
  in.clear();
  in.seekg(0);
  return binary ? ReadGraphBinary(in) : ReadGraph(in);
}

}  // namespace vulnds
