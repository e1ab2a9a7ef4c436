#include "common/parse.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vulnds {
namespace {

TEST(ParseTest, Uint64Valid) {
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64("42"), 42u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseTest, Uint64RejectsGarbage) {
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("abc").ok());
  EXPECT_FALSE(ParseUint64("12abc").ok());  // trailing junk
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("1.5").ok());
  EXPECT_FALSE(ParseUint64(" 1").ok());
}

TEST(ParseTest, Uint64Overflow) {
  EXPECT_EQ(ParseUint64("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
}

TEST(ParseTest, Int64Valid) {
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("7"), 7);
}

TEST(ParseTest, Int32RejectsOverflowInsteadOfTruncating) {
  EXPECT_EQ(*ParseInt32("2147483647"), 2147483647);
  EXPECT_EQ(*ParseInt32("-5"), -5);
  // 2^32 + 2 would truncate to 2 through a static_cast<int>.
  EXPECT_EQ(ParseInt32("4294967298").status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseInt32("abc").ok());
}

TEST(ParseTest, DoubleValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.3"), 0.3);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.5"), -2.5);
}

TEST(ParseTest, DoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("0.3x").ok());
}

TEST(ParseTest, DoubleRejectsNonFinite) {
  // from_chars accepts these spellings; the helpers must not, because NaN
  // defeats every open-interval validation downstream (all comparisons with
  // NaN are false) and infinities are never valid options.
  EXPECT_EQ(ParseDouble("nan").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("NaN").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("inf").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("INF").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("-inf").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("infinity").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("nan(0x1)").status().code(),
            StatusCode::kInvalidArgument);
  // Finite overflow stays OutOfRange, not InvalidArgument.
  EXPECT_EQ(ParseDouble("1e99999").status().code(), StatusCode::kOutOfRange);
}

// The formatter's reference: printf in the C locale. It lives only here.
std::string PrintfRoundTrip(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Checks `value` against the reference and, when finite, that the text
// re-parses to the same bits. Returns false (after one failure report) on
// the first mismatch, so a broken formatter does not flood the log.
bool MatchesPrintfAndRoundTrips(double value) {
  std::string got = "x";
  AppendRoundTrip(&got, value);
  const std::string want = "x" + PrintfRoundTrip(value);
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  if (got != want) {
    ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got '" << got
                  << "', printf gives '" << want << "'";
    return false;
  }
  if (!std::isfinite(value)) return true;
  const Result<double> back = ParseDouble(std::string_view(got).substr(1));
  if (!back.ok() || std::bit_cast<uint64_t>(*back) != bits) {
    ADD_FAILURE() << "bits 0x" << std::hex << bits << ": '" << got
                  << "' does not re-parse to the same bits";
    return false;
  }
  return true;
}

TEST(FormatTest, RoundTripMatchesPrintfOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN, -DBL_MIN, std::nextafter(DBL_MIN, 0.0), DBL_MAX, -DBL_MAX,
      std::nextafter(DBL_MAX, 0.0), DBL_EPSILON, 1.0, -1.0, 0.1, 0.5, 1.0 / 3,
      1e15, 1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4, 9.9999999999999995e-5,
      5e-324, 2.2250738585072009e-308, 0.30000000000000004};
  for (const double v : values) EXPECT_TRUE(MatchesPrintfAndRoundTrips(v));
}

TEST(FormatTest, RoundTripMatchesPrintfOnScoreFractions) {
  // Detect and truth scores are hit counts over world counts: c / t.
  std::vector<uint64_t> totals;
  for (uint64_t t = 1; t <= 256; ++t) totals.push_back(t);
  for (const uint64_t t : {1000u, 2000u, 3000u, 4096u, 9999u, 10000u}) {
    totals.push_back(t);
  }
  for (const uint64_t t : totals) {
    for (uint64_t c = 0; c <= t; ++c) {
      ASSERT_TRUE(MatchesPrintfAndRoundTrips(static_cast<double>(c) /
                                             static_cast<double>(t)))
          << c << "/" << t;
    }
  }
}

TEST(FormatTest, RoundTripMatchesPrintfOnRandomBitPatterns) {
  // Every exponent, sign and payload, NaNs and subnormals included.
  Rng rng(20260417);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(MatchesPrintfAndRoundTrips(std::bit_cast<double>(rng.NextU64())))
        << "pattern " << i;
  }
  // Subnormals are a sliver of the bit space; cover them on their own.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t mantissa = rng.NextU64() & ((uint64_t{1} << 52) - 1);
    const uint64_t sign = rng.NextU64() & (uint64_t{1} << 63);
    ASSERT_TRUE(MatchesPrintfAndRoundTrips(std::bit_cast<double>(sign | mantissa)))
        << "subnormal " << i;
  }
}

// A double and the doubles one ulp either side of it.
std::vector<double> WithNeighbours(double value) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {std::nextafter(value, -kInf), value, std::nextafter(value, kInf)};
}

TEST(FormatTest, RoundTripMatchesPrintfAroundPowersOfTen) {
  // Just below 10^q the digits carry into a new decimal exponent; the
  // nearest double to 10^q is the closest call for the exponent estimate.
  for (int q = -330; q <= 310; ++q) {
    const double nearest = std::strtod(("1e" + std::to_string(q)).c_str(),
                                       nullptr);
    for (const double v : WithNeighbours(nearest)) {
      ASSERT_TRUE(MatchesPrintfAndRoundTrips(v)) << "10^" << q;
      ASSERT_TRUE(MatchesPrintfAndRoundTrips(-v)) << "-10^" << q;
    }
  }
}

TEST(FormatTest, RoundTripMatchesPrintfAroundPowersOfTwo) {
  // Every binary exponent, subnormal to DBL_MAX's. Short dyadic values such
  // as 2^-25 = 2.98023223876953125e-08 have exactly 18 significant digits
  // ending in 5: a tie that printf rounds half to even.
  for (int e = -1074; e <= 1023; ++e) {
    for (const double v : WithNeighbours(std::ldexp(1.0, e))) {
      ASSERT_TRUE(MatchesPrintfAndRoundTrips(v)) << "2^" << e;
    }
  }
}

TEST(FormatTest, RoundTripMatchesPrintfAtTheKernelRangeEdges) {
  // The integer kernel covers [2^-50, 2^40); both sides of each edge.
  for (const double edge : {std::ldexp(1.0, -50), std::ldexp(1.0, 40)}) {
    for (const double v : WithNeighbours(edge)) {
      EXPECT_TRUE(MatchesPrintfAndRoundTrips(v));
      EXPECT_TRUE(MatchesPrintfAndRoundTrips(-v));
    }
  }
}

TEST(FormatTest, RoundTripMatchesPrintfOnProductsOfUniformDoubles) {
  // Products of two uniform doubles: score-shaped values with full
  // 53-bit mantissas, denser toward 0.
  Rng rng(20261020);
  for (int i = 0; i < 1000000; ++i) {
    const double u = rng.NextDouble();
    ASSERT_TRUE(MatchesPrintfAndRoundTrips(u * u)) << "product " << i;
  }
}

TEST(FormatTest, RoundTripPinsItsCarryAndTieCases) {
  const auto format = [](double value) {
    std::string text;
    AppendRoundTrip(&text, value);
    return text;
  };
  // The double nearest 1e-16: 17 digits stay below 10^-16, 16 would carry.
  EXPECT_EQ(format(0x1.cd2b297d889bcp-54), "9.9999999999999998e-17");
  // The double nearest 1e-14 rounds up to 10^-14 itself.
  EXPECT_EQ(format(0x1.6849b86a12b9bp-47), "1e-14");
  // 10 and 100 sit one decimal exponent above the binary estimate.
  EXPECT_EQ(format(10.0), "10");
  EXPECT_EQ(format(100.5), "100.5");
  // 2.98023223876953125e-08, a tie, rounds to the even last digit.
  EXPECT_EQ(format(0x1p-25), "2.9802322387695312e-08");
}

TEST(FormatTest, WriteRoundTripStaysWithinItsBound) {
  // The widest value fills kMaxRoundTripChars exactly; a heap buffer of
  // that size lets a sanitizer build catch a write past it.
  const std::vector<double> values = {-DBL_MIN, -0x1.fffffffffffffp-51,
                                      -0x1.fffffffffffffp+39, -1e-5, 0.1};
  for (const double v : values) {
    std::vector<char> buf(kMaxRoundTripChars);
    char* end = WriteRoundTrip(buf.data(), v);
    ASSERT_LE(end - buf.data(), static_cast<std::ptrdiff_t>(buf.size()));
    EXPECT_EQ(std::string(buf.data(), end), PrintfRoundTrip(v));
  }
  std::vector<char> buf(kMaxRoundTripChars);
  EXPECT_EQ(WriteRoundTrip(buf.data(), -DBL_MIN) - buf.data(),
            static_cast<std::ptrdiff_t>(kMaxRoundTripChars));
}

TEST(FormatTest, AppendDecimalAndCaseInsensitiveEquality) {
  std::string text = "n=";
  AppendDecimal(&text, 0);
  text += ' ';
  AppendDecimal(&text, 18446744073709551615u);
  EXPECT_EQ(text, "n=0 18446744073709551615");
  EXPECT_TRUE(EqualsIgnoreCase("DeTeCt", "detect"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("detects", "detect"));
  EXPECT_FALSE(EqualsIgnoreCase("detec", "detect"));
  EXPECT_FALSE(EqualsIgnoreCase("d\xC5tect", "detect"));
}

}  // namespace
}  // namespace vulnds
