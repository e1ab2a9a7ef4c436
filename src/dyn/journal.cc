#include "dyn/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "common/failpoint.h"

namespace vulnds::dyn {

namespace {

void PutU32(unsigned char* out, uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

uint32_t GetU32(const unsigned char* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

// Reads exactly `len` bytes; returns bytes read (< len only at EOF/error).
std::size_t ReadFull(int fd, void* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, static_cast<char*>(buf) + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

// Appends the [len][crc][payload] frame for `payload` to `out`.
void AppendFrame(std::string* out, const std::string& payload) {
  const std::size_t base = out->size();
  out->resize(base + 8 + payload.size());
  auto* head = reinterpret_cast<unsigned char*>(out->data() + base);
  PutU32(head, static_cast<uint32_t>(payload.size()));
  PutU32(head + 4, Crc32(payload.data(), payload.size()));
  std::memcpy(out->data() + base + 8, payload.data(), payload.size());
}

Status CheckRecordSize(const std::string& payload) {
  if (payload.size() <= DeltaJournal::kMaxRecordBytes) return Status::OK();
  return Status::InvalidArgument("journal record of " +
                                 std::to_string(payload.size()) +
                                 " bytes exceeds the 1 MiB record cap");
}

}  // namespace

Result<std::unique_ptr<DeltaJournal>> DeltaJournal::Open(
    const std::string& path) {
  if (const auto o = fail::Check(fail::points::kJournalOpen);
      o != fail::Outcome::kNone) {
    return Status::IOError("cannot open journal '" + path + "': " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open journal '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<DeltaJournal> journal(new DeltaJournal(path, fd));

  // Scan from the start; `valid_end` trails the last record that framed and
  // checksummed cleanly. Anything after it is a torn or corrupt tail.
  const off_t file_size = ::lseek(fd, 0, SEEK_END);
  if (file_size < 0) {
    return Status::IOError("cannot size journal '" + path +
                           "': " + std::strerror(errno));
  }
  if (::lseek(fd, 0, SEEK_SET) < 0) {
    return Status::IOError("cannot rewind journal '" + path +
                           "': " + std::strerror(errno));
  }
  std::size_t valid_end = 0;
  unsigned char header[8];
  std::string payload;
  while (true) {
    if (ReadFull(fd, header, sizeof(header)) != sizeof(header)) break;
    const uint32_t len = GetU32(header);
    const uint32_t crc = GetU32(header + 4);
    if (len > kMaxRecordBytes) break;
    payload.resize(len);
    if (ReadFull(fd, payload.data(), len) != len) break;
    if (Crc32(payload.data(), len) != crc) break;
    journal->recovered_.push_back(payload);
    ++journal->records_;
    valid_end += sizeof(header) + len;
  }
  if (static_cast<off_t>(valid_end) < file_size) {
    journal->dropped_tail_bytes_ =
        static_cast<std::size_t>(file_size) - valid_end;
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      return Status::IOError("cannot truncate corrupt tail of journal '" +
                             path + "': " + std::strerror(errno));
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return Status::IOError("cannot seek journal '" + path +
                           "': " + std::strerror(errno));
  }
  journal->bytes_ = valid_end;
  return journal;
}

DeltaJournal::~DeltaJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status DeltaJournal::Append(const std::string& payload) {
  if (wedged_) {
    return Status::IOError("journal '" + path_ +
                           "' is wedged after an unrecoverable write error");
  }
  VULNDS_RETURN_NOT_OK(CheckRecordSize(payload));
  std::string frame;
  AppendFrame(&frame, payload);

  // One write() per record: a crash leaves at most one torn record at the
  // tail, which the next Open() truncates away. An injected short write
  // models a torn one: half the frame really lands, then the "syscall"
  // fails, and the boundary rollback below must peel the partial record off.
  const fail::Outcome injected =
      fail::Check(fail::points::kJournalAppendWrite);
  int failed_errno = fail::InjectedErrno(injected);
  const std::size_t len = injected == fail::Outcome::kNone ? frame.size()
                          : injected == fail::Outcome::kShortWrite
                              ? frame.size() / 2
                              : 0;
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd_, frame.data() + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (failed_errno == 0) failed_errno = errno;
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  if (failed_errno != 0) {
    // Roll the file back to the last good record boundary so a retried
    // append never lands after torn bytes (replay stops at the first torn
    // record, which would silently drop everything written after it).
    if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET) < 0) {
      wedged_ = true;
      return Status::IOError("journal append to '" + path_ + "' failed (" +
                             std::strerror(failed_errno) +
                             ") and the partial record could not be rolled "
                             "back; journal wedged");
    }
    return Status::IOError(
        std::string("journal append to '") + path_ +
        "' failed: " + std::strerror(failed_errno) +
        (injected != fail::Outcome::kNone ? " (injected)" : ""));
  }
  bytes_ += frame.size();
  ++records_;
  return Status::OK();
}

Status DeltaJournal::Sync() {
  if (wedged_) {
    return Status::IOError("journal '" + path_ +
                           "' is wedged after an unrecoverable write error");
  }
  if (const auto o = fail::Check(fail::points::kJournalSyncFsync);
      o != fail::Outcome::kNone) {
    return Status::IOError("journal fsync of '" + path_ + "' failed: " +
                           std::strerror(fail::InjectedErrno(o)) +
                           " (injected)");
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("journal fsync of '" + path_ +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Status DeltaJournal::ReplaceWith(const std::vector<std::string>& payloads) {
  for (const std::string& payload : payloads) {
    VULNDS_RETURN_NOT_OK(CheckRecordSize(payload));
  }
  AtomicFileOptions options;
  options.fsync = true;
  options.write_failpoint = fail::points::kJournalCompactWrite;
  options.fsync_failpoint = fail::points::kJournalCompactFsync;
  options.rename_failpoint = fail::points::kJournalCompactRename;
  std::string frame;
  std::size_t bytes = 0;
  int fd = -1;
  VULNDS_RETURN_NOT_OK(ReplaceFileAtomic(
      path_, options,
      [&](ByteSink& out) -> Status {
        for (const std::string& payload : payloads) {
          frame.clear();
          AppendFrame(&frame, payload);
          VULNDS_RETURN_NOT_OK(out.Append(frame.data(), frame.size()));
          bytes += frame.size();
        }
        return Status::OK();
      },
      nullptr, &fd));

  // rename() moved the inode the writer still holds open under the journal
  // path, so adopting that fd — not reopening by name — leaves no window
  // where appends could go to a stale file.
  ::close(fd_);
  fd_ = fd;
  wedged_ = false;
  bytes_ = bytes;
  records_ = payloads.size();
  if (::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET) < 0) {
    wedged_ = true;
    return Status::IOError("cannot seek compacted journal '" + path_ +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace vulnds::dyn
