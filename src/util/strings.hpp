#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fibbing::util {

/// Split on a single delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Parse a non-negative integer; returns -1 on any malformed input
/// (used by the address/config parsers which map -1 to a Result failure).
[[nodiscard]] long long parse_uint_or(std::string_view text, long long fallback);

}  // namespace fibbing::util
