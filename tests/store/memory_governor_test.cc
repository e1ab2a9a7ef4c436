#include "store/memory_governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vulnds::store {
namespace {

TEST(MemoryGovernorTest, ZeroBudgetAccountsButNeverSheds) {
  MemoryGovernor governor;  // budget 0 = accounting only
  bool shed_called = false;
  const auto shedder =
      governor.RegisterShedder(ChargeClass::kContext, [&](std::size_t) {
    shed_called = true;
    return std::size_t{0};
  });
  governor.Charge(ChargeClass::kSnapshot, 1 << 20);
  governor.Charge(ChargeClass::kContext, 123);
  EXPECT_EQ(governor.charged(ChargeClass::kSnapshot), std::size_t{1} << 20);
  EXPECT_EQ(governor.charged(ChargeClass::kContext), 123u);
  EXPECT_EQ(governor.total_charged(), (std::size_t{1} << 20) + 123u);
  EXPECT_FALSE(shed_called);
  governor.Discharge(ChargeClass::kSnapshot, 1 << 20);
  governor.Discharge(ChargeClass::kContext, 123);
  EXPECT_EQ(governor.total_charged(), 0u);
  EXPECT_FALSE(governor.Oversize(std::size_t{1} << 40));
}

TEST(MemoryGovernorTest, OversizeOnlyBeyondBudget) {
  MemoryGovernorOptions options;
  options.budget_bytes = 1000;
  MemoryGovernor governor(options);
  EXPECT_FALSE(governor.Oversize(1000));
  EXPECT_TRUE(governor.Oversize(1001));
}

TEST(MemoryGovernorTest, RechargeReplacesWithoutDoubleCounting) {
  MemoryGovernor governor;
  governor.Charge(ChargeClass::kResult, 400);
  governor.Recharge(ChargeClass::kResult, 400, 150);
  EXPECT_EQ(governor.charged(ChargeClass::kResult), 150u);
  governor.Recharge(ChargeClass::kResult, 150, 600);
  EXPECT_EQ(governor.charged(ChargeClass::kResult), 600u);
}

TEST(MemoryGovernorTest, ShedsInClassOrderContextFirst) {
  MemoryGovernorOptions options;
  options.budget_bytes = 100;
  MemoryGovernor governor(options);
  // Each class holds 80 bytes it can give back; record who was asked.
  std::vector<std::string> order;
  std::size_t context_held = 0, snapshot_held = 0, result_held = 0;
  const auto context =
      governor.RegisterShedder(ChargeClass::kContext, [&](std::size_t want) {
    order.push_back("context");
    const std::size_t freed = std::min(want, context_held);
    context_held -= freed;
    governor.Discharge(ChargeClass::kContext, freed);
    return freed;
  });
  const auto snapshot =
      governor.RegisterShedder(ChargeClass::kSnapshot, [&](std::size_t want) {
    order.push_back("snapshot");
    const std::size_t freed = std::min(want, snapshot_held);
    snapshot_held -= freed;
    governor.Discharge(ChargeClass::kSnapshot, freed);
    return freed;
  });
  const auto result =
      governor.RegisterShedder(ChargeClass::kResult, [&](std::size_t want) {
    order.push_back("result");
    const std::size_t freed = std::min(want, result_held);
    result_held -= freed;
    governor.Discharge(ChargeClass::kResult, freed);
    return freed;
  });

  // 80 bytes per class = 240 total against a budget of 100. The shed loop
  // must drain contexts fully, then take the remaining 60 from snapshots,
  // and never touch results.
  context_held = 80;
  governor.Charge(ChargeClass::kContext, 80);
  snapshot_held = 80;
  governor.Charge(ChargeClass::kSnapshot, 80);
  result_held = 80;
  governor.Charge(ChargeClass::kResult, 80);

  EXPECT_LE(governor.total_charged(), 100u);
  EXPECT_EQ(governor.charged(ChargeClass::kContext), 0u);
  EXPECT_EQ(governor.charged(ChargeClass::kSnapshot), 20u);
  EXPECT_EQ(governor.charged(ChargeClass::kResult), 80u);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), "context");
  for (const std::string& who : order) EXPECT_NE(who, "result");
  EXPECT_GE(governor.sheds(ChargeClass::kContext), 1u);
  EXPECT_EQ(governor.shed_bytes(ChargeClass::kContext), 80u);
  EXPECT_EQ(governor.shed_bytes(ChargeClass::kSnapshot), 60u);
}

TEST(MemoryGovernorTest, StopsCleanlyWhenNothingCanBeFreed) {
  MemoryGovernorOptions options;
  options.budget_bytes = 10;
  MemoryGovernor governor(options);
  int calls = 0;
  const auto shedder =
      governor.RegisterShedder(ChargeClass::kContext, [&](std::size_t) {
    ++calls;
    return std::size_t{0};  // everything pinned
  });
  governor.Charge(ChargeClass::kSnapshot, 100);  // must not loop forever
  EXPECT_EQ(governor.total_charged(), 100u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(governor.sheds(ChargeClass::kContext), 0u);
}

// The budget invariant: under a randomized charge/discharge workload whose
// shedders can always free every outstanding byte, the total charge never
// remains above the budget after a Charge returns.
TEST(MemoryGovernorTest, ChargedBytesNeverExceedBudgetProperty) {
  MemoryGovernorOptions options;
  options.budget_bytes = 5000;
  MemoryGovernor governor(options);
  std::size_t held[kChargeClassCount] = {};
  const ChargeClass classes[] = {ChargeClass::kContext, ChargeClass::kSnapshot,
                                 ChargeClass::kResult};
  std::vector<MemoryGovernor::Registration> shedders;
  for (const ChargeClass cls : classes) {
    shedders.push_back(
        governor.RegisterShedder(cls, [&, cls](std::size_t want) {
          std::size_t& mine = held[static_cast<int>(cls)];
          const std::size_t freed = std::min(want, mine);
          mine -= freed;
          governor.Discharge(cls, freed);
          return freed;
        }));
  }
  Rng rng(42);
  for (int step = 0; step < 2000; ++step) {
    const ChargeClass cls = classes[rng.NextBounded(3)];
    std::size_t& mine = held[static_cast<int>(cls)];
    if (rng.NextDouble() < 0.7 || mine == 0) {
      const std::size_t bytes = 1 + rng.NextBounded(900);
      mine += bytes;
      governor.Charge(cls, bytes);
    } else {
      const std::size_t bytes = 1 + rng.NextBounded(mine);
      mine -= bytes;
      governor.Discharge(cls, bytes);
    }
    ASSERT_LE(governor.total_charged(), options.budget_bytes)
        << "step " << step;
    // The governor's ledger and the pools' own books must agree.
    for (const ChargeClass check : classes) {
      ASSERT_EQ(governor.charged(check), held[static_cast<int>(check)]);
    }
  }
}

// A registration owns its shedder's place in the shed loop: once it is
// destroyed the governor never calls the shedder again, and moving it
// hands that ownership over without unregistering anything.
TEST(MemoryGovernorTest, DestroyedRegistrationIsNeverCalled) {
  MemoryGovernorOptions options;
  options.budget_bytes = 10;
  MemoryGovernor governor(options);
  int calls = 0;
  {
    const auto shedder = governor.RegisterShedder(
        ChargeClass::kResult, [&](std::size_t) {
          ++calls;
          return std::size_t{0};
        });
    governor.Charge(ChargeClass::kResult, 100);
    EXPECT_EQ(calls, 1);
  }
  governor.MaybeShed();  // still over budget, nothing registered
  EXPECT_EQ(calls, 1);
}

TEST(MemoryGovernorTest, MovedFromRegistrationDoesNotUnregister) {
  MemoryGovernorOptions options;
  options.budget_bytes = 10;
  MemoryGovernor governor(options);
  std::size_t held = 0;
  std::optional<MemoryGovernor::Registration> moved;
  {
    auto shedder = governor.RegisterShedder(
        ChargeClass::kResult, [&](std::size_t want) {
          const std::size_t freed = std::min(want, held);
          held -= freed;
          governor.Discharge(ChargeClass::kResult, freed);
          return freed;
        });
    moved.emplace(std::move(shedder));
  }  // the moved-from registration dies here
  held = 100;
  governor.Charge(ChargeClass::kResult, 100);
  EXPECT_EQ(governor.total_charged(), 10u);
  EXPECT_EQ(governor.sheds(ChargeClass::kResult), 1u);

  moved.reset();
  held += 50;
  governor.Charge(ChargeClass::kResult, 50);
  EXPECT_EQ(governor.total_charged(), 60u);
  EXPECT_EQ(governor.sheds(ChargeClass::kResult), 1u);
}

}  // namespace
}  // namespace vulnds::store
