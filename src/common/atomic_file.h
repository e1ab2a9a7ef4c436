// Atomic file replacement, the one way a file is replaced here: snapshot
// saves, journal side files, spill pages and journal compaction.
//
// ReplaceFileAtomic streams a body into the temp `<dest>.tmp.<pid>.<serial>`
// and rename()s it over `<dest>`, so a reader, a GC scan or a restart sees
// the complete old file or the complete new one. The pid and serial keep
// concurrent writers off each other's temps; the destination prefix lets a
// sweep that matches destinations (the spill GC's "<pid>." and ".vg2")
// reclaim the temps a crash leaves. The body goes through a bounded buffer
// with a CRC-32 extended over every byte. With `fsync`, the bytes are
// forced to disk through the descriptor that wrote them, result checked,
// before the rename; close() is checked too. Any failure unlinks the temp
// and leaves the destination as it was. Each step can carry a failpoint,
// checked at most once per call: open, the first data write (a short write
// lands half the pending bytes first), fsync and rename.

#ifndef VULNDS_COMMON_ATOMIC_FILE_H_
#define VULNDS_COMMON_ATOMIC_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/crc32.h"
#include "common/status.h"

namespace vulnds {

/// Destination of a streamed encoding: a file, a checksum, a stream.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual Status Append(const void* data, std::size_t len) = 0;
};

/// Keeps only the CRC-32 of what passes through it.
class Crc32Sink final : public ByteSink {
 public:
  Status Append(const void* data, std::size_t len) override {
    crc_ = Crc32Extend(crc_, data, len);
    return Status::OK();
  }
  uint32_t crc() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

/// Whether ReplaceFileAtomic fsyncs, and each step's failpoint name
/// (nullptr: not injectable at this site).
struct AtomicFileOptions {
  bool fsync = false;
  const char* open_failpoint = nullptr;
  const char* write_failpoint = nullptr;
  const char* fsync_failpoint = nullptr;
  const char* rename_failpoint = nullptr;
};

/// Replaces `path` with the bytes `body` appends to the sink it is given.
/// On success `*crc` (if set) is the CRC-32 of those bytes, and if
/// `adopt_fd` is set the file is not closed: the caller owns `*adopt_fd`, a
/// write descriptor of the file now named `path`, positioned at its end.
/// Returns the body's own error or IOError, with `path` untouched and no
/// temp file left behind.
Status ReplaceFileAtomic(const std::string& path,
                         const AtomicFileOptions& options,
                         const std::function<Status(ByteSink&)>& body,
                         uint32_t* crc = nullptr, int* adopt_fd = nullptr);

/// File-name-safe rendering of a graph name: every byte outside
/// [A-Za-z0-9._-] becomes '_' ("g@v3" -> "g_v3"). Spill pages and journal
/// side files add a uid or version, which keeps collisions such as "a/b"
/// and "a_b" apart on disk.
std::string SanitizeForFilename(const std::string& name);

}  // namespace vulnds

#endif  // VULNDS_COMMON_ATOMIC_FILE_H_
