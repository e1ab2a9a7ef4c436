// Serialization of uncertain graphs: a human-readable text format (v1) and a
// compact binary snapshot format (v2) for the serving layer.
//
// Text format (whitespace separated, '#' comments allowed):
//   vulnds-graph 1
//   <num_nodes> <num_edges>
//   <ps(0)> <ps(1)> ... <ps(n-1)>        (may span multiple lines)
//   <src> <dst> <prob>                    (num_edges lines)
//
// Binary format (v2), all integers and doubles little-endian:
//   magic   8 bytes  "VULNDSG\n"
//   u32     version  (2)
//   u64     num_nodes n
//   u64     num_edges m
//   f64[n]  self risks
//   u64[n+1] out-CSR offsets
//   u32[m]  arc destination, out-CSR order (grouped by src)
//   f64[m]  arc diffusion probability, out-CSR order
//   u32[m]  arc global edge id, out-CSR order
// The edge-id column makes the dump lossless: the insertion-order edge list
// (and hence the exact dual-CSR layout the builder produces) is recovered,
// so a graph loaded from a snapshot is indistinguishable from one loaded
// from text — detection results are bit-identical.
//
// One writer, one reader. EncodeGraphBinary is the only v2 encoder: it
// streams the columns into any ByteSink (common/atomic_file.h), so a save,
// a journal side file and a spill page are the same bytes written through
// ReplaceFileAtomic, and a checksum-only sink re-derives a page's CRC
// without holding the bytes. ReadGraphPage is the only v2 reader: `load`,
// `convert`, journal replay (through ReadGraphFile) and the catalog's
// page-in all read through it, straight into the graph's columns.
//
// Exact length. A v2 file is exactly one snapshot: its length must equal
// the 28-byte header plus what the header's n and m declare, and that is
// checked before any column is allocated. A file that is shorter
// (truncated) or longer (trailing bytes) is rejected.
//
// Failures. IOError means the file could not be opened, sized or read (or
// a failpoint fired): worth a retry. InvalidArgument means its bytes are
// wrong: bad magic or version, dimensions beyond the id width, a length
// that disagrees with the header, a CRC mismatch, or a column that breaks
// a probability or CSR invariant (the message names the offending index).
// Retrying cannot fix those.

#ifndef VULNDS_GRAPH_GRAPH_IO_H_
#define VULNDS_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "common/atomic_file.h"
#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace vulnds {

/// On-disk representations understood by WriteGraphFile / ReadGraphFile.
enum class GraphFileFormat {
  kText = 0,   ///< vulnds-graph v1, human readable
  kBinary,     ///< v2 binary snapshot, I/O-bound to load
};

/// Writes `graph` in the vulnds-graph text format.
Status WriteGraph(const UncertainGraph& graph, std::ostream& out);

/// Streams `graph` as a v2 binary snapshot into `sink`, each column
/// projected out of the CSR through a bounded buffer.
Status EncodeGraphBinary(const UncertainGraph& graph, ByteSink& sink);

/// Replaces `path` with `graph` in the requested format through
/// ReplaceFileAtomic, fsynced before the rename.
Status WriteGraphFile(const UncertainGraph& graph, const std::string& path,
                      GraphFileFormat format = GraphFileFormat::kText);

/// Parses a graph from the vulnds-graph text format.
Result<UncertainGraph> ReadGraph(std::istream& in);

/// Reads the v2 snapshot at `path` straight into the graph's columns.
/// `before_alloc` (if set) runs once the length checks out, before any
/// column is allocated; `expected_crc` (if set) must match the whole file
/// before anything is assembled.
Result<UncertainGraph> ReadGraphPage(
    const std::string& path, std::optional<uint32_t> expected_crc = {},
    const std::function<void()>& before_alloc = {});

/// Reads a graph from `path`, auto-detecting text vs binary by magic.
Result<UncertainGraph> ReadGraphFile(const std::string& path);

}  // namespace vulnds

#endif  // VULNDS_GRAPH_GRAPH_IO_H_
