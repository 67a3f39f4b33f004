#pragma once

// Strict number parsing for the command-line tools (tempriv-campaign,
// scenario_cli, scale_rcad). std::stoul / std::strtod would accept "12x",
// wrap "-3", skip leading blanks, read "" as 0 and let "nan" through; these
// reject all of that with a UsageError naming the flag, which every tool
// reports as a usage error (exit 2).

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace tempriv::cli {

/// A malformed or out-of-range command-line value.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Strict non-negative integer that fits T: digits only, fully consumed,
/// in range. "12x", "-3", "" and "99999999999999999999999" all throw.
template <typename T>
T parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError(flag + " wants a non-negative integer, got '" + text +
                     "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      value > std::numeric_limits<T>::max()) {
    throw UsageError(flag + " value out of range: '" + text + "'");
  }
  return static_cast<T>(value);
}

/// Strict finite double, fully consumed, with no leading blanks.
inline double parse_double(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    throw UsageError(flag + " wants a number, got '" + text + "'");
  }
  return value;
}

}  // namespace tempriv::cli
