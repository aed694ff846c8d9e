#include "common/bytesize.hpp"

#include <stdexcept>

#include "common/numfmt.hpp"

namespace gpuvar {

std::uint64_t parse_byte_size(const std::string& text,
                              const std::string& flag) {
  if (text == "unlimited") return kUnlimitedBytes;
  std::string digits = text;
  std::uint64_t scale = 1;
  if (!digits.empty()) {
    const char suffix = digits.back();
    if (suffix == 'K' || suffix == 'k') scale = 1ull << 10;
    if (suffix == 'M' || suffix == 'm') scale = 1ull << 20;
    if (suffix == 'G' || suffix == 'g') scale = 1ull << 30;
    if (scale != 1) digits.pop_back();
  }
  long long value = 0;
  if (!parse_int(digits, value) || value < 0) {
    throw std::invalid_argument(
        "bad " + flag + " '" + text +
        "' (want BYTES, BYTES with K/M/G, or 'unlimited')");
  }
  // The scaled product must fit in 64 bits: a wrapped value would
  // silently become an arbitrary small (or effectively unlimited)
  // budget instead of the error the user needs to see.
  if (static_cast<std::uint64_t>(value) > ~std::uint64_t{0} / scale) {
    throw std::invalid_argument(flag + " '" + text +
                                "' overflows a 64-bit byte count");
  }
  return static_cast<std::uint64_t>(value) * scale;
}

}  // namespace gpuvar
