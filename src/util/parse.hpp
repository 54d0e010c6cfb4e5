// Strict index parsing for the readers of untrusted text (topologies,
// observation files, obs streams): `istream >> std::size_t` accepts a sign
// and wraps the value ("-3" reads as 2^64 - 3).
#pragma once

#include <charconv>
#include <cstddef>
#include <istream>
#include <string>

namespace tomo::util {

/// Parses a whole token as a decimal index; false on anything else
/// (sign, fraction, trailing characters, overflow).
inline bool parse_index(const std::string& token, std::size_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Reads the next token of `is` through parse_index; false if none.
inline bool read_index(std::istream& is, std::size_t& out) {
  std::string token;
  return static_cast<bool>(is >> token) && parse_index(token, out);
}

}  // namespace tomo::util
