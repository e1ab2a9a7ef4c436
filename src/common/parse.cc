#include "common/parse.h"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

namespace vulnds {

namespace {

template <typename T>
Result<T> ParseWith(std::string_view token, const char* kind) {
  T value{};
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange(std::string(kind) + " out of range: '" +
                              std::string(token) + "'");
  }
  if (ec != std::errc() || ptr != last || token.empty()) {
    return Status::InvalidArgument("not a valid " + std::string(kind) + ": '" +
                                   std::string(token) + "'");
  }
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars accepts "inf"/"nan" spellings, but no option or probability
    // in this codebase is meaningfully non-finite — and NaN slides through
    // open-interval validations written as `x <= 0 || x >= 1` (every
    // comparison with NaN is false), so it must die at the parse boundary.
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("non-finite " + std::string(kind) + ": '" +
                                     std::string(token) + "'");
    }
  }
  return value;
}

}  // namespace

Result<uint64_t> ParseUint64(std::string_view token) {
  return ParseWith<uint64_t>(token, "non-negative integer");
}

Result<int64_t> ParseInt64(std::string_view token) {
  return ParseWith<int64_t>(token, "integer");
}

Result<int> ParseInt32(std::string_view token) {
  return ParseWith<int>(token, "integer");
}

Result<double> ParseDouble(std::string_view token) {
  return ParseWith<double>(token, "number");
}

namespace {

using U128 = unsigned __int128;

// 5^p for p <= 32. 5^32 < 2^75, so m * 5^p < 2^128 for every m < 2^53.
constexpr std::array<U128, 33> kPow5 = [] {
  std::array<U128, 33> pow{};
  pow[0] = 1;
  for (std::size_t p = 1; p < pow.size(); ++p) pow[p] = pow[p - 1] * 5;
  return pow;
}();

// "00" .. "99", two characters per entry.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

constexpr uint64_t kTen17 = 100'000'000'000'000'000;

// round-half-even(m * 5^scale / 2^shift): the digits of m * 2^e * 10^scale
// when shift = -(e + scale). The product is exact, so the rounding is too.
uint64_t ScaledDigits(uint64_t m, int scale, int shift) {
  const U128 product = m * kPow5[scale];
  const U128 half = U128{1} << (shift - 1);
  const U128 rest = product & ((half << 1) - 1);
  uint64_t digits = static_cast<uint64_t>(product >> shift);
  if (rest > half || (rest == half && (digits & 1) != 0)) ++digits;
  return digits;
}

// Writes `value` < 10^8 as exactly 8 digits.
void WriteEightDigits(char* out, uint32_t value) {
  const uint32_t high = value / 10000;
  const uint32_t low = value % 10000;
  std::memcpy(out, &kDigitPairs[2 * (high / 100)], 2);
  std::memcpy(out + 2, &kDigitPairs[2 * (high % 100)], 2);
  std::memcpy(out + 4, &kDigitPairs[2 * (low / 100)], 2);
  std::memcpy(out + 6, &kDigitPairs[2 * (low % 100)], 2);
}

// Writes `digits` in [10^16, 10^17) as exactly 17 digits.
void WriteSeventeenDigits(char* out, uint64_t digits) {
  const uint64_t high = digits / 100'000'000;  // 9 digits, the first nonzero
  out[0] = static_cast<char>('0' + high / 100'000'000);
  WriteEightDigits(out + 1, static_cast<uint32_t>(high % 100'000'000));
  WriteEightDigits(out + 9, static_cast<uint32_t>(digits % 100'000'000));
}

// Drops the trailing zeros of a number that ends at `end` and has a point
// before its last nonzero digit, then the point itself if nothing follows.
char* StripZeros(char* end) {
  while (end[-1] == '0') --end;
  return end[-1] == '.' ? end - 1 : end;
}

}  // namespace

char* WriteRoundTrip(char* out, double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const int biased = static_cast<int>(bits >> 52) & 0x7ff;
  // The kernel covers |value| in [2^-50, 2^40), where nonzero scores,
  // probabilities and timings fall. 0, subnormals, inf/NaN and the far
  // exponents take to_chars, which printf("%.17g") is specified to match.
  if (biased < 1023 - 50 || biased >= 1023 + 40) {
    return std::to_chars(out, out + kMaxRoundTripChars, value,
                         std::chars_format::general, 17)
        .ptr;
  }
  // value = m * 2^e with 2^52 <= m < 2^53, so e is in [-102, -13].
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int e = biased - 1075;
  // floor((e + 52) * log10(2)): the decimal exponent X is this or one more.
  int exp10 = ((e + 52) * 78913) >> 18;
  // D = round(value * 10^(16 - X)) is the 17 digits of %.17g. At the finer
  // scale D >= 10^17 means X is one more, rounding's carry included (D ==
  // 10^17 exactly), and the coarser scale then yields D in [10^16, 10^17).
  int scale = 16 - exp10;
  uint64_t digits = ScaledDigits(m, scale, -(e + scale));
  if (digits >= kTen17) {
    ++exp10;
    --scale;
    digits = ScaledDigits(m, scale, -(e + scale));
  }

  // %g's layout: fixed for -4 <= X < 17, else d.ddde-XX (X >= -16 here).
  // The digits go straight to their place; each branch then drops the
  // trailing zeros, and the point when no fraction is left.
  char* at = out;
  *at = '-';
  at += bits >> 63;
  if (exp10 < -4) {
    WriteSeventeenDigits(at + 1, digits);
    at[0] = at[1];
    at[1] = '.';
    at = StripZeros(at + 18);
    std::memcpy(at, "e-", 2);
    std::memcpy(at + 2, &kDigitPairs[2 * -exp10], 2);
    return at + 4;
  }
  if (exp10 < 0) {
    std::memcpy(at, "0.000", 5);
    WriteSeventeenDigits(at + 1 - exp10, digits);
    return StripZeros(at + 18 - exp10);
  }
  char d[17];
  WriteSeventeenDigits(d, digits);
  const int whole = exp10 + 1;
  std::memcpy(at, d, whole);
  at[whole] = '.';
  std::memcpy(at + whole + 1, d + whole, 17 - whole);
  return StripZeros(at + 18);
}

void AppendRoundTrip(std::string* out, double value) {
  char buf[kMaxRoundTripChars];
  out->append(buf, WriteRoundTrip(buf, value));
}

char* WriteDecimal(char* out, uint64_t value) {
  return std::to_chars(out, out + kMaxDecimalChars, value).ptr;
}

void AppendDecimal(std::string* out, uint64_t value) {
  char buf[kMaxDecimalChars];
  out->append(buf, WriteDecimal(buf, value));
}

bool EqualsIgnoreCase(std::string_view token, std::string_view lower) {
  if (token.size() != lower.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(token[i])) != lower[i]) {
      return false;
    }
  }
  return true;
}

std::string AsciiLower(std::string token) {
  for (char& c : token) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return token;
}

}  // namespace vulnds
