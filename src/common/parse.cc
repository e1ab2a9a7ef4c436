#include "common/parse.h"

#include <cctype>
#include <charconv>
#include <cmath>
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

void AppendRoundTrip(std::string* out, double value) {
  char buf[32];  // the longest form, "-2.2250738585072014e-308", is 24
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 17);
  out->append(buf, result.ptr);
}

void AppendDecimal(std::string* out, uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
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
