// Locale-independent number formatting and parsing.
//
// printf-family float conversions (and std::to_string / strtod / stod)
// consult LC_NUMERIC: under a European locale "3.14" becomes "3,14" and
// round-trips break. Every number that crosses an interchange boundary
// (CSV export/import, CLI option parsing) goes through these
// std::to_chars / std::from_chars wrappers instead, so the bytes are
// identical in every environment.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace gpuvar {

/// Formats the shortest string that parses back to exactly `value`
/// (std::to_chars with no format or precision: "0.1", "1530",
/// "1e-300"). Non-finite values format as "nan", "inf", "-inf".
std::string format_double(double value);

/// Formats like printf "%.<precision>g" in the C locale; non-finite
/// values as above.
std::string format_double(double value, int precision);

/// Locale-independent integer formatting.
std::string format_int(long long value);

/// Appends format_double's exact bytes to `out` without a temporary
/// string — the per-cell path of the buffered CSV writer.
void append_double(std::string& out, double value);
void append_double(std::string& out, double value, int precision);

/// Appends format_int's exact bytes to `out` without a temporary.
void append_int(std::string& out, long long value);

/// Parses a complete double ("inf"/"nan" accepted, optional leading '+').
/// Returns false if `s` is empty, trails garbage, or overflows.
bool parse_double(std::string_view s, double& out);

/// Parses a complete base-10 integer. Same contract as parse_double.
bool parse_int(std::string_view s, long long& out);

/// Lowercase hex with no prefix or padding — the rendering of content
/// hashes in manifests and campaign summaries.
std::string format_hex(std::uint64_t v);

/// Parses a complete hex integer (no prefix). Same contract as
/// parse_int.
bool parse_hex(std::string_view s, std::uint64_t& out);

}  // namespace gpuvar
