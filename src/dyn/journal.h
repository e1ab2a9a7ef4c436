// DeltaJournal: append-only on-disk log of staged update operations.
//
// The journal makes the dynamic-update write path durable: every staged op
// and every commit is appended as one length-prefixed, checksummed record,
// and the file is fsync'd at commit boundaries. After a crash (including
// kill -9 mid-append) UpdateManager replays the journal at startup and
// reconstructs every committed `name@vN` version plus the staged-but-
// uncommitted tail.
//
// Record framing, little-endian:
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The CRC is the standard reflected CRC-32 (polynomial 0xEDB88320, as used
// by zip/png). A record whose header runs past EOF, whose length exceeds
// kMaxRecordBytes, or whose checksum mismatches marks the start of a
// corrupt tail: Open() truncates the file back to the last valid record
// boundary (recording how many bytes were dropped) and the journal is
// usable again — a torn append never poisons future appends.
//
// Payloads are single-line text in the UpdateManager replay grammar
// (`open` / `add` / `set` / `del` / `commit`); the journal itself treats
// them as opaque bytes.
//
// Appends go through the raw file descriptor with a single write() per
// record, so a record is either fully in the kernel or detectably torn —
// never interleaved with another process' buffering. Sync() fsyncs. The
// journal is NOT internally synchronized; UpdateManager serializes access
// under its own mutex.

#ifndef VULNDS_DYN_JOURNAL_H_
#define VULNDS_DYN_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"

namespace vulnds::dyn {

/// The journal's frame checksum — the shared reflected CRC-32 from
/// common/crc32.h, re-exported under the historical dyn:: name.
using vulnds::Crc32;

class DeltaJournal {
 public:
  /// Longest payload a record may carry; a corrupted length field is almost
  /// always astronomically large, so the cap turns it into a clean
  /// truncated-tail detection instead of a giant bogus read.
  static constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 20;

  /// Opens (creating if absent) the journal at `path`, validates every
  /// record, truncates any corrupt/torn tail, and positions the write
  /// cursor at the end. The validated payloads are kept in recovered() for
  /// the caller to replay.
  static Result<std::unique_ptr<DeltaJournal>> Open(const std::string& path);

  ~DeltaJournal();
  DeltaJournal(const DeltaJournal&) = delete;
  DeltaJournal& operator=(const DeltaJournal&) = delete;

  /// Appends one record (framing + checksum added here). The payload is in
  /// the kernel when this returns; call Sync() to force it to disk.
  ///
  /// On a failed or partial write the file is rolled back to the last good
  /// record boundary, so a later Append never lands after torn bytes. If
  /// that rollback itself fails the journal is wedged: every further
  /// Append/Sync fails fast rather than risk committing records that replay
  /// would silently drop at the torn point.
  Status Append(const std::string& payload);

  /// fsync()s the journal file (commit barrier).
  Status Sync();

  /// Atomically replaces the journal contents with `payloads` (compaction)
  /// through ReplaceFileAtomic: a fully framed temp file next to the
  /// journal, fsynced and rename()d over the journal path. A crash at any
  /// step leaves either the complete old journal or the complete new one.
  /// On success the journal adopts the writer's fd and continues appending
  /// to the new file; on failure the old file and write cursor are
  /// untouched.
  Status ReplaceWith(const std::vector<std::string>& payloads);

  /// Payloads recovered by Open(), in append order. Cleared by
  /// ReleaseRecovered() once the owner has replayed them.
  const std::vector<std::string>& recovered() const { return recovered_; }
  void ReleaseRecovered() {
    recovered_.clear();
    recovered_.shrink_to_fit();
  }

  const std::string& path() const { return path_; }
  /// Current on-disk size (valid records only).
  std::size_t bytes() const { return bytes_; }
  /// Records on disk: recovered at Open plus appended since.
  std::size_t records() const { return records_; }
  /// Bytes Open() cut off the tail (0 on a clean file).
  std::size_t dropped_tail_bytes() const { return dropped_tail_bytes_; }

 private:
  DeltaJournal(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  bool wedged_ = false;
  std::size_t bytes_ = 0;
  std::size_t records_ = 0;
  std::size_t dropped_tail_bytes_ = 0;
  std::vector<std::string> recovered_;
};

}  // namespace vulnds::dyn

#endif  // VULNDS_DYN_JOURNAL_H_
