// Checked number parsing on std::from_chars, and the matching formatters on
// std::to_chars.
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

#include <cstdint>
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

/// Appends `value` with 17 significant digits: the bytes printf("%.17g")
/// gives in the C locale (std::to_chars in general format at precision 17
/// is specified to match it), enough for every finite double to re-parse
/// through ParseDouble to the same bits. The one double format of the wire,
/// the journal, text snapshots and the metric exposition.
void AppendRoundTrip(std::string* out, double value);

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
