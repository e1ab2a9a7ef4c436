// Graph files for tests: v2 snapshot bytes for tests that patch, cut or
// mutate a snapshot and read it back, and per-test graph files to load.

#ifndef VULNDS_TESTS_TESTING_SNAPSHOT_BYTES_H_
#define VULNDS_TESTS_TESTING_SNAPSHOT_BYTES_H_

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "graph/graph_io.h"
#include "testing/temp_path.h"

namespace vulnds::testing {

/// A sink that keeps every byte in a string.
class StringSink final : public ByteSink {
 public:
  Status Append(const void* data, std::size_t len) override {
    bytes.append(static_cast<const char*>(data), len);
    return Status::OK();
  }
  std::string bytes;
};

/// The v2 encoding of `g`.
inline std::string SnapshotBytes(const UncertainGraph& g) {
  StringSink sink;
  const Status st = EncodeGraphBinary(g, sink);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.bytes;
}

/// Writes `bytes` verbatim to the running test's own file `name` in the
/// test temp dir (TestTempPath); returns the path.
inline std::string WriteBytes(const std::string& bytes,
                              const std::string& name) {
  const std::string path = TestTempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// Writes `g` to the running test's own file `name` in the test temp dir
/// (TestTempPath) in `format`; returns the path.
inline std::string WriteTempGraph(
    const UncertainGraph& g, const std::string& name,
    GraphFileFormat format = GraphFileFormat::kBinary) {
  const std::string path = TestTempPath(name);
  const Status st = WriteGraphFile(g, path, format);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

}  // namespace vulnds::testing

#endif  // VULNDS_TESTS_TESTING_SNAPSHOT_BYTES_H_
