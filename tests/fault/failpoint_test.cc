// Failpoint registry semantics: arming policies (once/every/after),
// outcomes, env-var arming, hit counting, and the disabled fast path.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

namespace vulnds::fail {
namespace {

// Every test leaves the process-global registry clean: ctest runs each
// TEST in its own process, but the suite must also pass under a single
// filtered run.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAll(); }
  void TearDown() override {
    DisarmAll();
    ::unsetenv("VULNDS_FAILPOINTS");
  }
};

TEST_F(FailpointTest, DisarmedCheckReturnsNone) {
  EXPECT_EQ(Check("journal.append.write"), Outcome::kNone);
  EXPECT_EQ(Check("never.registered.anywhere"), Outcome::kNone);
  EXPECT_EQ(Hits("journal.append.write"), 0u);
}

TEST_F(FailpointTest, OncePolicyFiresExactlyOnce) {
  ASSERT_TRUE(Arm("p.once", "once:eio").ok());
  EXPECT_EQ(Check("p.once"), Outcome::kEio);
  EXPECT_EQ(Check("p.once"), Outcome::kNone);
  EXPECT_EQ(Check("p.once"), Outcome::kNone);
  EXPECT_EQ(Hits("p.once"), 1u);
}

TEST_F(FailpointTest, EveryNthPolicyFiresPeriodically) {
  ASSERT_TRUE(Arm("p.every", "every:3:enospc").ok());
  std::vector<Outcome> seen;
  for (int i = 0; i < 9; ++i) seen.push_back(Check("p.every"));
  // Fires on the 3rd, 6th, 9th check.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(seen[i], (i + 1) % 3 == 0 ? Outcome::kEnospc : Outcome::kNone)
        << "check " << i;
  }
  EXPECT_EQ(Hits("p.every"), 3u);
}

TEST_F(FailpointTest, AfterNPolicyFiresFromNPlusOneOnward) {
  ASSERT_TRUE(Arm("p.after", "after:2:short").ok());
  EXPECT_EQ(Check("p.after"), Outcome::kNone);
  EXPECT_EQ(Check("p.after"), Outcome::kNone);
  EXPECT_EQ(Check("p.after"), Outcome::kShortWrite);
  EXPECT_EQ(Check("p.after"), Outcome::kShortWrite);
  EXPECT_EQ(Hits("p.after"), 2u);
}

TEST_F(FailpointTest, RearmReplacesPolicyAndResetsCounters) {
  ASSERT_TRUE(Arm("p.rearm", "once:eio").ok());
  EXPECT_EQ(Check("p.rearm"), Outcome::kEio);
  ASSERT_TRUE(Arm("p.rearm", "once:enospc").ok());
  EXPECT_EQ(Check("p.rearm"), Outcome::kEnospc);  // fires again after rearm
}

TEST_F(FailpointTest, DisarmStopsInjection) {
  ASSERT_TRUE(Arm("p.disarm", "every:1:eio").ok());
  EXPECT_EQ(Check("p.disarm"), Outcome::kEio);
  Disarm("p.disarm");
  EXPECT_EQ(Check("p.disarm"), Outcome::kNone);
  EXPECT_EQ(Hits("p.disarm"), 1u);  // hit count survives Disarm
}

TEST_F(FailpointTest, InvalidSpecsAreRejected) {
  EXPECT_FALSE(Arm("p", "").ok());
  EXPECT_FALSE(Arm("p", "once").ok());            // missing outcome
  EXPECT_FALSE(Arm("p", "once:sigsegv").ok());    // unknown outcome
  EXPECT_FALSE(Arm("p", "every:0:eio").ok());     // zero period
  EXPECT_FALSE(Arm("p", "every:x:eio").ok());     // non-numeric
  EXPECT_FALSE(Arm("p", "sometimes:eio").ok());   // unknown policy
  EXPECT_FALSE(Arm("p=q", "once:eio").ok());      // '=' breaks env grammar
  EXPECT_FALSE(Arm("p,q", "once:eio").ok());      // ',' breaks env grammar
  EXPECT_EQ(Check("p"), Outcome::kNone);          // nothing ended up armed
}

TEST_F(FailpointTest, ArmFromEnvParsesCommaSeparatedEntries) {
  ::setenv("VULNDS_FAILPOINTS", "a.one=once:eio,b.two=every:2:short", 1);
  ASSERT_TRUE(ArmFromEnv().ok());
  EXPECT_EQ(Check("a.one"), Outcome::kEio);
  EXPECT_EQ(Check("b.two"), Outcome::kNone);
  EXPECT_EQ(Check("b.two"), Outcome::kShortWrite);

  const std::vector<std::string> armed = ArmedPoints();
  // a.one was once: and already fired, so only b.two is still armed.
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0], "b.two=every:2:short");
}

TEST_F(FailpointTest, ArmFromEnvRejectsMalformedEntries) {
  ::setenv("VULNDS_FAILPOINTS", "good=once:eio,bad-entry-no-equals", 1);
  EXPECT_FALSE(ArmFromEnv().ok());
  // Earlier entries stay armed, so the partial configuration is observable.
  EXPECT_EQ(Check("good"), Outcome::kEio);
}

TEST_F(FailpointTest, ArmFromEnvUnsetIsOkNoop) {
  ::unsetenv("VULNDS_FAILPOINTS");
  EXPECT_TRUE(ArmFromEnv().ok());
  EXPECT_TRUE(ArmedPoints().empty());
}

TEST_F(FailpointTest, KnownPointsCoverEveryThreadedSeam) {
  const std::vector<std::string>& known = KnownPoints();
  EXPECT_FALSE(known.empty());
  for (const char* p :
       {points::kJournalOpen, points::kJournalAppendWrite,
        points::kJournalSyncFsync, points::kJournalCompactWrite,
        points::kJournalCompactFsync, points::kJournalCompactRename,
        points::kSnapshotWriteOpen, points::kSnapshotWriteData,
        points::kSnapshotWriteFsync, points::kSnapshotWriteRename,
        points::kSnapshotRead, points::kSpillWrite, points::kSpillPageIn,
        points::kNetSendWrite}) {
    EXPECT_NE(std::find(known.begin(), known.end(), std::string(p)),
              known.end())
        << p << " missing from KnownPoints()";
  }
}

TEST_F(FailpointTest, InjectedErrnoMapsOutcomes) {
  EXPECT_EQ(InjectedErrno(Outcome::kNone), 0);
  EXPECT_EQ(InjectedErrno(Outcome::kEio), EIO);
  EXPECT_EQ(InjectedErrno(Outcome::kEnospc), ENOSPC);
  EXPECT_EQ(InjectedErrno(Outcome::kShortWrite), EIO);
}

}  // namespace
}  // namespace vulnds::fail
