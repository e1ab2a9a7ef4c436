#include "simd/dispatch.h"

#include <gtest/gtest.h>

namespace vulnds::simd {
namespace {

TEST(SimdDispatchTest, ParseAcceptsKnobVocabularyCaseInsensitive) {
  const struct {
    const char* text;
    SimdMode mode;
  } cases[] = {
      {"auto", SimdMode::kAuto},     {"AUTO", SimdMode::kAuto},
      {"Auto", SimdMode::kAuto},     {"scalar", SimdMode::kScalar},
      {"SCALAR", SimdMode::kScalar}, {"avx2", SimdMode::kAvx2},
      {"AVX2", SimdMode::kAvx2},     {"Avx2", SimdMode::kAvx2},
      {"avx512", SimdMode::kAvx512}, {"AVX512", SimdMode::kAvx512},
      {"Avx512", SimdMode::kAvx512},
  };
  for (const auto& c : cases) {
    Result<SimdMode> m = ParseSimdMode(c.text);
    ASSERT_TRUE(m.ok()) << c.text;
    EXPECT_EQ(*m, c.mode) << c.text;
  }
}

TEST(SimdDispatchTest, ParseRejectsJunk) {
  for (const char* bad : {"", "avx", "avx-512", "avx512f", "avx51", "sse",
                          "0", "on", "scalar "}) {
    EXPECT_FALSE(ParseSimdMode(bad).ok()) << "'" << bad << "'";
  }
}

TEST(SimdDispatchTest, ModeAndTierNamesRoundTripThroughParse) {
  for (const SimdMode m : {SimdMode::kAuto, SimdMode::kScalar, SimdMode::kAvx2,
                           SimdMode::kAvx512}) {
    Result<SimdMode> parsed = ParseSimdMode(SimdModeName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx512), "avx512");
  // A tier's name parses back to the mode that forces it.
  for (const SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2,
                           SimdTier::kAvx512}) {
    Result<SimdMode> parsed = ParseSimdMode(SimdTierName(t));
    ASSERT_TRUE(parsed.ok()) << SimdTierName(t);
    EXPECT_STREQ(SimdModeName(*parsed), SimdTierName(t));
  }
}

TEST(SimdDispatchTest, ScalarIsAlwaysHonored) {
  EXPECT_EQ(ResolveTier(SimdMode::kScalar), SimdTier::kScalar);
}

TEST(SimdDispatchTest, AutoResolvesToProcessDefault) {
  EXPECT_EQ(ResolveTier(SimdMode::kAuto), DefaultTier());
}

TEST(SimdDispatchTest, Avx2DegradesToScalarWhenUnavailable) {
  const SimdTier resolved = ResolveTier(SimdMode::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(resolved, SimdTier::kAvx2);
  } else {
    EXPECT_EQ(resolved, SimdTier::kScalar);
  }
}

TEST(SimdDispatchTest, Avx512DegradesToAvx2ThenScalarWhenUnavailable) {
  const SimdTier resolved = ResolveTier(SimdMode::kAvx512);
  if (Avx512Available()) {
    EXPECT_EQ(resolved, SimdTier::kAvx512);
  } else if (Avx2Available()) {
    EXPECT_EQ(resolved, SimdTier::kAvx2);
  } else {
    EXPECT_EQ(resolved, SimdTier::kScalar);
  }
}

TEST(SimdDispatchTest, Avx512IsHonoredWhereTheCpuHasIt) {
  if (!Avx512Available()) {
    GTEST_SKIP() << "host or build lacks AVX-512F/DQ";
  }
  EXPECT_TRUE(Avx512KernelsCompiled());
  EXPECT_EQ(ResolveTier(SimdMode::kAvx512), SimdTier::kAvx512);
  EXPECT_EQ(BestSupportedTier(), SimdTier::kAvx512);
  // Every AVX-512F host also has AVX2, so forcing avx2 still means avx2.
  EXPECT_EQ(ResolveTier(SimdMode::kAvx2), SimdTier::kAvx2);
}

TEST(SimdDispatchTest, BestSupportedTierIsConsistentWithAvailability) {
  const SimdTier expected = Avx512Available() ? SimdTier::kAvx512
                            : Avx2Available() ? SimdTier::kAvx2
                                              : SimdTier::kScalar;
  EXPECT_EQ(BestSupportedTier(), expected);
  // The CPU cannot report an instruction set the build never compiled.
  if (!Avx2KernelsCompiled()) {
    EXPECT_FALSE(Avx2Available());
  }
  if (!Avx512KernelsCompiled()) {
    EXPECT_FALSE(Avx512Available());
  }
}

}  // namespace
}  // namespace vulnds::simd
