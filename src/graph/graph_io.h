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

#ifndef VULNDS_GRAPH_GRAPH_IO_H_
#define VULNDS_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

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

/// Writes `graph` as a v2 binary snapshot. `out` must be a binary stream.
Status WriteGraphBinary(const UncertainGraph& graph, std::ostream& out);

/// Writes `graph` to `path` in the requested format; overwrites existing
/// content.
Status WriteGraphFile(const UncertainGraph& graph, const std::string& path,
                      GraphFileFormat format = GraphFileFormat::kText);

/// Parses a graph from the vulnds-graph text format.
Result<UncertainGraph> ReadGraph(std::istream& in);

/// Parses a graph from the v2 binary snapshot format.
Result<UncertainGraph> ReadGraphBinary(std::istream& in);

/// Reads a v2 snapshot page from `path` (the serving catalog's spill
/// files) straight into the graph's columns, with no whole-file buffer.
/// The file length must equal what the header declares; once it does,
/// `before_alloc` (if set) runs, and only then are the columns allocated.
/// The CRC-32 of the whole file must equal `expected_crc` (checked before
/// anything is assembled); assembly then validates exactly as
/// ReadGraphBinary does. Returns IOError when the file cannot be opened or
/// read (worth a retry) and InvalidArgument when its bytes are wrong.
Result<UncertainGraph> ReadGraphPage(
    const std::string& path, uint32_t expected_crc,
    const std::function<void()>& before_alloc = {});

/// Reads a graph from `path`, auto-detecting text vs binary by magic.
Result<UncertainGraph> ReadGraphFile(const std::string& path);

}  // namespace vulnds

#endif  // VULNDS_GRAPH_GRAPH_IO_H_
