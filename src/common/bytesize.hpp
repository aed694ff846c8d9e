// Human-entered byte-size parsing shared by every budget flag.
//
// A budget flag (today `run --shard-budget`) accepts "a number of
// bytes, or 'unlimited'". Every such flag must agree on the grammar,
// the unlimited sentinel, and — critically — on rejecting values whose
// K/M/G scaling wraps 64 bits: a wrapped budget silently becomes an
// arbitrary small (or effectively unlimited) limit instead of the
// error the user needs to see.
#pragma once

#include <cstdint>
#include <string>

namespace gpuvar {

/// The "no limit" sentinel every byte budget uses: larger than any
/// real budget, so `bytes <= budget` comparisons need no special case.
inline constexpr std::uint64_t kUnlimitedBytes = ~std::uint64_t{0};

/// Parses "unlimited", or a byte count with an optional K/M/G (binary)
/// suffix, e.g. "4M". `flag` names the option in error messages (e.g.
/// "--shard-budget"). Throws std::invalid_argument on bad syntax
/// or a scaled product that overflows a 64-bit byte count.
std::uint64_t parse_byte_size(const std::string& text,
                              const std::string& flag);

}  // namespace gpuvar
