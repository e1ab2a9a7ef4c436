// MemoryGovernor: one byte budget over every serving-layer memory pool.
//
// Before this module, three pools fought over RAM with inconsistent
// accounting: the graph catalog charged snapshot bytes only, warm
// DetectionContexts were telemetry, and the result cache was entry-counted.
// The governor unifies them in the classic buffer-pool mold: every pool
// *charges* its resident bytes under a charge class (snapshot / context /
// cached result), one global budget bounds the sum, and when a charge
// pushes the total over budget the governor *sheds* — asking the registered
// shedders to free bytes in a fixed preference order:
//
//   1. kContext  — warm per-graph intermediates. Pure functions of
//                  (graph, key), so dropping one costs recompute, never
//                  correctness; always the cheapest bytes to give back.
//   2. kSnapshot — resident graphs. With a spill directory the catalog
//                  writes the coldest snapshot to disk and pages it back on
//                  demand; without one it frees nothing (a snapshot may be
//                  the only copy of a committed version) and the governor
//                  moves on to the next class.
//   3. kResult   — cached query results. Shed last: a result is the
//                  finished product of the other two classes' work.
//
// Pinning is cooperative: pools skip entries their owners have pinned (the
// catalog skips CatalogEntry::pins > 0), so a snapshot under an in-flight
// query is never spilled from under it. A fully-pinned pool simply frees
// nothing and the governor moves to the next class; the budget is therefore
// a target the shed loop restores whenever anything unpinned remains, not a
// hard allocation fence.
//
// Ownership: RegisterShedder returns a move-only registration, and
// destroying it removes the shedder. A pool keeps its registration as a
// member declared after the state its shedder touches, so the shedder is
// gone before that state is, and the governor never calls into a dead pool.
//
// Thread safety: charges are lock-free per-class atomics; shedding is
// serialized by one mutex. Shedders run under that mutex and MUST NOT call
// Charge or Recharge (re-entering the shed loop) — Discharge is always safe
// and is exactly what freeing memory should call. A registration's
// destructor takes the mutex too, so it waits out a shed in progress. The
// governor must outlive every pool that charges through it.

#ifndef VULNDS_STORE_MEMORY_GOVERNOR_H_
#define VULNDS_STORE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace vulnds::store {

/// The charge classes, in shed-preference order (contexts go first).
enum class ChargeClass : int { kContext = 0, kSnapshot = 1, kResult = 2 };
inline constexpr std::size_t kChargeClassCount = 3;

/// Stable label text for metrics / stats ("context", "snapshot", "result").
const char* ChargeClassName(ChargeClass cls);

struct MemoryGovernorOptions {
  /// Global byte budget over all classes; 0 = unbounded (the governor still
  /// accounts, so resident_bytes reporting works, but never sheds).
  std::size_t budget_bytes = 0;
};

class MemoryGovernor {
 public:
  /// Frees up to `want` bytes of one class; returns the bytes it freed
  /// (which it must itself Discharge). Runs under the shed mutex: it may
  /// call Discharge but never Charge/Recharge, and must tolerate being
  /// unable to free anything (everything pinned or busy) by returning 0.
  using Shedder = std::function<std::size_t(std::size_t want)>;

  /// Keeps one shedder registered for as long as it lives. Move-only; a
  /// moved-from registration owns nothing and unregisters nothing.
  class [[nodiscard]] Registration {
   public:
    Registration(Registration&& other) noexcept
        : governor_(other.governor_), id_(other.id_) {
      other.governor_ = nullptr;
    }
    Registration& operator=(Registration&&) = delete;
    ~Registration();

   private:
    friend class MemoryGovernor;
    Registration(MemoryGovernor* governor, uint64_t id)
        : governor_(governor), id_(id) {}

    MemoryGovernor* governor_;
    uint64_t id_;
  };

  explicit MemoryGovernor(const MemoryGovernorOptions& options = {});

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Registers a shedder for `cls` until the returned registration dies.
  /// Multiple shedders per class are tried in registration order.
  Registration RegisterShedder(ChargeClass cls, Shedder shedder);

  /// Adds `bytes` to the class charge, then sheds if the total exceeds the
  /// budget. Never call while holding a lock a shedder needs.
  void Charge(ChargeClass cls, std::size_t bytes);

  /// Subtracts `bytes` from the class charge. Never sheds, never locks —
  /// always safe, including from inside a shedder.
  void Discharge(ChargeClass cls, std::size_t bytes);

  /// Replaces an earlier charge of `old_bytes` with `new_bytes` in one
  /// step (sheds only if the total grew over budget).
  void Recharge(ChargeClass cls, std::size_t old_bytes, std::size_t new_bytes);

  /// True when a single entry of `bytes` could never fit the budget —
  /// pools reject such entries outright instead of shedding everything
  /// else first (see LruCache's rejected_oversize).
  bool Oversize(std::size_t bytes) const {
    const std::size_t budget = budget_bytes_;
    return budget != 0 && bytes > budget;
  }

  /// Runs the shed loop if the total is over budget. Charge calls this
  /// automatically; exposed for pools that batch several Discharge/Charge
  /// pairs and want one settlement at the end.
  void MaybeShed();

  std::size_t budget() const { return budget_bytes_; }
  std::size_t charged(ChargeClass cls) const {
    return charged_[static_cast<int>(cls)].load(std::memory_order_relaxed);
  }
  std::size_t total_charged() const;

  /// Shed telemetry: calls that freed bytes, and the bytes freed, per class.
  std::size_t sheds(ChargeClass cls) const {
    return sheds_[static_cast<int>(cls)].load(std::memory_order_relaxed);
  }
  std::size_t shed_bytes(ChargeClass cls) const {
    return shed_bytes_[static_cast<int>(cls)].load(std::memory_order_relaxed);
  }

 private:
  const std::size_t budget_bytes_;
  std::atomic<std::size_t> charged_[kChargeClassCount] = {};
  std::atomic<std::size_t> sheds_[kChargeClassCount] = {};
  std::atomic<std::size_t> shed_bytes_[kChargeClassCount] = {};

  // Guards shedders_ and serializes the shed loop: two concurrent
  // over-budget charges must not both shed where one sufficed. Shedders do
  // disk I/O (spilling) under this mutex — crossing the budget is allowed
  // to be slow; staying under it is free.
  std::mutex shed_mu_;
  uint64_t next_shedder_id_ = 1;  // guarded by shed_mu_
  std::vector<std::pair<uint64_t, Shedder>> shedders_[kChargeClassCount];
};

}  // namespace vulnds::store

#endif  // VULNDS_STORE_MEMORY_GOVERNOR_H_
