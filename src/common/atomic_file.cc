#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace vulnds {

namespace {

std::atomic<uint64_t> g_temp_serial{0};

// The error an armed failpoint turns into at the seam `what` names.
Status Injected(const std::string& what, fail::Outcome outcome) {
  return Status::IOError(what + ": " +
                         std::strerror(fail::InjectedErrno(outcome)) +
                         " (injected)");
}

// Checks `point` (when the site has one) for the step `what` names.
Status CheckStep(const char* point, const std::string& what) {
  const fail::Outcome o =
      point == nullptr ? fail::Outcome::kNone : fail::Check(point);
  return o == fail::Outcome::kNone ? Status::OK() : Injected(what, o);
}

// Streams into the open temp file through a bounded buffer, extending the
// CRC over each append while its bytes are still in cache.
class TempFileSink final : public ByteSink {
 public:
  TempFileSink(int fd, const std::string& path, const char* write_failpoint)
      : fd_(fd), path_(path), write_failpoint_(write_failpoint) {}

  Status Append(const void* data, std::size_t len) override {
    crc_ = Crc32Extend(crc_, data, len);
    const auto* bytes = static_cast<const char*>(data);
    while (len > 0) {
      const std::size_t take = std::min(len, buffer_.size() - used_);
      std::memcpy(buffer_.data() + used_, bytes, take);
      used_ += take;
      bytes += take;
      len -= take;
      if (used_ == buffer_.size()) VULNDS_RETURN_NOT_OK(Flush());
    }
    return Status::OK();
  }

  // Writes out the buffer. The data failpoint fires at the first flush,
  // which every call makes (an empty body too, through the final one).
  Status Flush() {
    const char* data = buffer_.data();
    std::size_t len = std::exchange(used_, 0);
    if (const char* point = std::exchange(write_failpoint_, nullptr)) {
      const fail::Outcome o = fail::Check(point);
      // A short write really lands a prefix: the torn temp a crash leaves.
      if (o == fail::Outcome::kShortWrite) (void)!::write(fd_, data, len / 2);
      if (o != fail::Outcome::kNone) {
        return Injected("write to " + path_ + " failed", o);
      }
    }
    while (len > 0) {
      const ssize_t n = ::write(fd_, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("write to " + path_ +
                               " failed: " + std::strerror(errno));
      }
      data += n;
      len -= static_cast<std::size_t>(n);
    }
    return Status::OK();
  }

  uint32_t crc() const { return crc_; }

 private:
  const int fd_;
  const std::string& path_;
  const char* write_failpoint_;
  std::vector<char> buffer_ = std::vector<char>(std::size_t{1} << 16);
  std::size_t used_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace

Status ReplaceFileAtomic(const std::string& path,
                         const AtomicFileOptions& options,
                         const std::function<Status(ByteSink&)>& body,
                         uint32_t* crc, int* adopt_fd) {
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(g_temp_serial.fetch_add(1, std::memory_order_relaxed));
  VULNDS_RETURN_NOT_OK(CheckStep(options.open_failpoint,
                                 "cannot open " + temp + " for writing"));
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + temp +
                           " for writing: " + std::strerror(errno));
  }

  Status st = [&]() -> Status {
    TempFileSink sink(fd, temp, options.write_failpoint);
    VULNDS_RETURN_NOT_OK(body(sink));
    VULNDS_RETURN_NOT_OK(sink.Flush());
    if (options.fsync) {
      VULNDS_RETURN_NOT_OK(
          CheckStep(options.fsync_failpoint, "cannot fsync " + temp));
      if (::fsync(fd) != 0) {
        return Status::IOError("cannot fsync " + temp + ": " +
                               std::strerror(errno));
      }
    }
    if (crc != nullptr) *crc = sink.crc();
    return Status::OK();
  }();
  if (st.ok() && adopt_fd == nullptr) {
    const int closed = ::close(fd);
    fd = -1;
    if (closed != 0) {
      st = Status::IOError("close of " + temp +
                           " failed: " + std::strerror(errno));
    }
  }
  if (st.ok()) {
    st = CheckStep(options.rename_failpoint,
                   "cannot rename " + temp + " to " + path);
  }
  if (st.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    st = Status::IOError("cannot rename " + temp + " to " + path + ": " +
                         std::strerror(errno));
  }
  if (!st.ok()) {
    if (fd >= 0) ::close(fd);
    ::unlink(temp.c_str());
    return st;
  }
  if (adopt_fd != nullptr) *adopt_fd = fd;
  return Status::OK();
}

std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace vulnds
