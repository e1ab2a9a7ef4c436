#include "store/memory_governor.h"

namespace vulnds::store {

const char* ChargeClassName(ChargeClass cls) {
  switch (cls) {
    case ChargeClass::kContext:
      return "context";
    case ChargeClass::kSnapshot:
      return "snapshot";
    case ChargeClass::kResult:
      return "result";
  }
  return "unknown";
}

MemoryGovernor::MemoryGovernor(const MemoryGovernorOptions& options)
    : budget_bytes_(options.budget_bytes) {}

MemoryGovernor::Registration MemoryGovernor::RegisterShedder(
    ChargeClass cls, Shedder shedder) {
  std::lock_guard<std::mutex> lock(shed_mu_);
  const uint64_t id = next_shedder_id_++;
  shedders_[static_cast<int>(cls)].emplace_back(id, std::move(shedder));
  return Registration(this, id);
}

MemoryGovernor::Registration::~Registration() {
  if (governor_ == nullptr) return;  // moved from
  std::lock_guard<std::mutex> lock(governor_->shed_mu_);
  for (auto& shedders : governor_->shedders_) {
    std::erase_if(shedders, [&](const auto& s) { return s.first == id_; });
  }
}

void MemoryGovernor::Charge(ChargeClass cls, std::size_t bytes) {
  if (bytes == 0) return;
  charged_[static_cast<int>(cls)].fetch_add(bytes, std::memory_order_relaxed);
  MaybeShed();
}

void MemoryGovernor::Discharge(ChargeClass cls, std::size_t bytes) {
  if (bytes == 0) return;
  charged_[static_cast<int>(cls)].fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryGovernor::Recharge(ChargeClass cls, std::size_t old_bytes,
                              std::size_t new_bytes) {
  if (old_bytes == new_bytes) return;
  auto& charge = charged_[static_cast<int>(cls)];
  if (new_bytes > old_bytes) {
    charge.fetch_add(new_bytes - old_bytes, std::memory_order_relaxed);
    MaybeShed();
  } else {
    charge.fetch_sub(old_bytes - new_bytes, std::memory_order_relaxed);
  }
}

std::size_t MemoryGovernor::total_charged() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kChargeClassCount; ++i) {
    total += charged_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void MemoryGovernor::MaybeShed() {
  if (budget_bytes_ == 0 || total_charged() <= budget_bytes_) return;
  std::lock_guard<std::mutex> lock(shed_mu_);
  // Re-check under the mutex: a concurrent shed may already have brought us
  // back under budget while we waited.
  while (true) {
    const std::size_t total = total_charged();
    if (total <= budget_bytes_) return;
    const std::size_t want = total - budget_bytes_;
    std::size_t freed = 0;
    for (std::size_t i = 0; i < kChargeClassCount && freed < want; ++i) {
      for (auto& [id, shedder] : shedders_[i]) {
        const std::size_t got = shedder(want - freed);
        if (got > 0) {
          freed += got;
          sheds_[i].fetch_add(1, std::memory_order_relaxed);
          shed_bytes_[i].fetch_add(got, std::memory_order_relaxed);
        }
        if (freed >= want) break;
      }
    }
    // No shedder made progress (everything pinned, or nothing registered):
    // accept running over budget rather than spinning.
    if (freed == 0) return;
  }
}

}  // namespace vulnds::store
