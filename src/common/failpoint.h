// Failpoints: deterministic IO fault injection for tests and chaos runs.
//
// A failpoint is a named site at an IO seam (a write(), fsync(), rename(),
// open(), read() that can fail in production). Code at the seam asks
// `fail::Check(point)` what to do; when the point is armed the call returns
// an injected outcome (EIO, ENOSPC, or a short write) which the seam turns
// into the same error path a real kernel failure would take. When nothing is
// armed anywhere in the process, Check() is a single relaxed atomic load —
// cheap enough to leave compiled into production binaries. Defining
// VULNDS_NO_FAILPOINTS compiles every check down to a constant for builds
// that want the last instruction back.
//
// Arming, programmatic or via environment:
//
//   fail::Arm("journal.sync.fsync", "once:eio");        // fail 1st check
//   fail::Arm("spill.write", "every:3:enospc");         // 3rd, 6th, 9th...
//   fail::Arm("net.send.write", "after:5:short");       // 6th onward
//   VULNDS_FAILPOINTS="journal.append.write=once:eio,spill.page_in=every:2:eio"
//
// Spec grammar: `<policy>:<outcome>` where policy is `once`, `every:N`, or
// `after:N` and outcome is `eio`, `enospc`, or `short` (short write: the
// seam writes a prefix of the buffer for real, then reports EIO — exercising
// torn-output recovery). Hits(point) counts how many times a point actually
// fired, so tests can assert an injection was reached.
//
// The registry is thread-safe; Check() may be called concurrently with
// Arm()/Disarm() from other threads.

#ifndef VULNDS_COMMON_FAILPOINT_H_
#define VULNDS_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace vulnds::fail {

/// What an armed failpoint injects at its seam.
enum class Outcome {
  kNone = 0,    // not armed / policy says pass — proceed normally
  kEio,         // behave as if the syscall failed with EIO
  kEnospc,      // behave as if the syscall failed with ENOSPC
  kShortWrite,  // write a prefix for real, then fail with EIO
};

/// The errno an injected outcome models (EIO for kShortWrite; 0 for kNone).
int InjectedErrno(Outcome outcome);

/// Canonical registered site names. Arm() accepts any string, but these are
/// the points actually threaded through the IO seams — chaos tooling arms
/// from this list.
namespace points {
inline constexpr const char* kJournalOpen = "journal.open";
inline constexpr const char* kJournalAppendWrite = "journal.append.write";
inline constexpr const char* kJournalSyncFsync = "journal.sync.fsync";
inline constexpr const char* kJournalCompactWrite = "journal.compact.write";
inline constexpr const char* kJournalCompactFsync = "journal.compact.fsync";
inline constexpr const char* kJournalCompactRename = "journal.compact.rename";
inline constexpr const char* kSnapshotWriteOpen = "snapshot.write.open";
inline constexpr const char* kSnapshotWriteData = "snapshot.write.data";
inline constexpr const char* kSnapshotWriteFsync = "snapshot.write.fsync";
inline constexpr const char* kSnapshotWriteRename = "snapshot.write.rename";
inline constexpr const char* kSnapshotRead = "snapshot.read";
inline constexpr const char* kSpillWrite = "spill.write";
inline constexpr const char* kSpillPageIn = "spill.page_in";
inline constexpr const char* kNetSendWrite = "net.send.write";
}  // namespace points

/// Every canonical point name, for "arm all sites" sweeps.
const std::vector<std::string>& KnownPoints();

/// Arms `point` with `spec` (grammar above). Replaces any existing arming of
/// the same point; resets its hit count.
Status Arm(const std::string& point, const std::string& spec);

/// Disarms one point (no-op if not armed). Its hit count is retained.
void Disarm(const std::string& point);

/// Disarms every point and clears all hit counts.
void DisarmAll();

/// Times `point` actually fired (returned a non-kNone outcome).
std::uint64_t Hits(const std::string& point);

/// Parses VULNDS_FAILPOINTS ("p=spec,p=spec") and arms each entry. Returns
/// OK when the variable is unset/empty; InvalidArgument on a malformed entry
/// (earlier entries stay armed so the error is observable but deterministic).
Status ArmFromEnv();

/// Human-readable list of currently armed points ("point=spec"), sorted;
/// used to log chaos configurations for reproduction.
std::vector<std::string> ArmedPoints();

namespace detail {
extern std::atomic<int> g_armed_count;
Outcome CheckSlow(const char* point);
}  // namespace detail

/// Asks whether `point` should fail right now. One relaxed load when nothing
/// is armed process-wide.
inline Outcome Check(const char* point) {
#ifdef VULNDS_NO_FAILPOINTS
  (void)point;
  return Outcome::kNone;
#else
  if (detail::g_armed_count.load(std::memory_order_relaxed) == 0) {
    return Outcome::kNone;
  }
  return detail::CheckSlow(point);
#endif
}

}  // namespace vulnds::fail

#endif  // VULNDS_COMMON_FAILPOINT_H_
