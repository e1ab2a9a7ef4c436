// Checked number parsing on std::from_chars, and the matching formatters:
// an exact integer kernel for doubles, std::to_chars for the rest.
//
// Unlike std::atof / std::atoll (which return 0 on garbage and therefore turn
// typos into silently wrong runs), these helpers require the WHOLE token to
// parse and return an InvalidArgument status otherwise. Used by the CLI and
// the serve protocol.
//
// The formatters append to a caller's buffer without stdio, iostreams or the
// locale, so a response, journal record or snapshot line is built in one
// string.

#ifndef VULNDS_COMMON_PARSE_H_
#define VULNDS_COMMON_PARSE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/status.h"

namespace vulnds {

/// Parses a non-negative decimal integer; rejects signs, suffixes, overflow.
Result<uint64_t> ParseUint64(std::string_view token);

/// Parses a decimal integer with optional leading '-'.
Result<int64_t> ParseInt64(std::string_view token);

/// Parses a decimal integer that must fit in int (overflow is OutOfRange,
/// never a silent truncation).
Result<int> ParseInt32(std::string_view token);

/// Parses a finite floating-point number (fixed or scientific). The
/// "inf"/"nan" spellings from_chars would accept are rejected: non-finite
/// values defeat open-interval range checks downstream (NaN compares false
/// against everything) and never make sense as options or probabilities.
Result<double> ParseDouble(std::string_view token);

/// The most bytes WriteRoundTrip writes: "-2.2250738585072014e-308".
inline constexpr std::size_t kMaxRoundTripChars = 24;

/// The most bytes WriteDecimal writes: UINT64_MAX's 20 digits.
inline constexpr std::size_t kMaxDecimalChars =
    std::numeric_limits<uint64_t>::digits10 + 1;

/// Writes `value` with 17 significant digits: the bytes printf("%.17g")
/// gives in the C locale, enough for every finite double to re-parse through
/// ParseDouble to the same bits. `out` must have room for kMaxRoundTripChars;
/// returns one past the last byte written. For |value| in [2^-50, 2^40) an
/// exact integer kernel computes the digits (one 128-bit product of the
/// mantissa and a power of 5, rounded half to even); 0, subnormals, inf/NaN
/// and the far exponents take std::to_chars in general format at precision
/// 17, which is specified to match printf. The one double format of the
/// wire, the journal, text snapshots and the metric exposition.
char* WriteRoundTrip(char* out, double value);

/// Appends WriteRoundTrip's bytes for `value`.
void AppendRoundTrip(std::string* out, double value);

/// Writes `value` in decimal at `out`, which must have room for
/// kMaxDecimalChars; returns one past the last byte written.
char* WriteDecimal(char* out, uint64_t value);

/// Appends `value` in decimal.
void AppendDecimal(std::string* out, uint64_t value);

/// True when `token` equals `lower` ignoring ASCII case; `lower` must be
/// lowercase already.
bool EqualsIgnoreCase(std::string_view token, std::string_view lower);

/// ASCII-lowercases a token; used for case-insensitive command, method, and
/// dataset-name matching.
std::string AsciiLower(std::string token);

}  // namespace vulnds

#endif  // VULNDS_COMMON_PARSE_H_
