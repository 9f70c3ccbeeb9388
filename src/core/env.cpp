#include "core/env.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace stf::core::env {

namespace {

std::string trimmed(const std::string& text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0)
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0)
    --end;
  return text.substr(begin, end - begin);
}

std::string lowered(const std::string& text) {
  std::string out = text;
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

std::uint64_t parse_u64(const std::string& name, const std::string& text,
                        std::uint64_t min_value, std::uint64_t max_value) {
  if (min_value > max_value)
    throw std::invalid_argument(name + ": empty valid range");
  const std::string body = trimmed(text);
  if (body.empty())
    throw std::invalid_argument(name + ": empty value");
  std::uint64_t value = 0;
  for (const char c : body) {
    if (c < '0' || c > '9')
      throw std::invalid_argument(name + ": expected a decimal integer, got \"" +
                                  text + "\"");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // Reject before the multiply/add could wrap: an absurd value (e.g.
    // 2^64 + 1) must never alias back into the accepted range.
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10 ||
        value * 10 + digit > max_value)
      throw std::invalid_argument(
          name + ": value out of range [" + std::to_string(min_value) + ", " +
          std::to_string(max_value) + "]: \"" + text + "\"");
    value = value * 10 + digit;
  }
  if (value < min_value)
    throw std::invalid_argument(
        name + ": value out of range [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "]: \"" + text + "\"");
  return value;
}

double parse_double(const std::string& name, const std::string& text) {
  // std::from_chars, not std::stod: stod honors the process locale, so under
  // de_DE.UTF-8 it would reject "0.2", and it throws std::out_of_range on
  // "1e999" and on subnormals such as "1e-320", which a caller that catches
  // std::invalid_argument lets escape.
  double value = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || !std::isfinite(value))
    throw std::invalid_argument(name + ": expected a finite decimal number, "
                                "got \"" + text + "\"");
  return value;
}

bool parse_flag(const std::string& name, const std::string& text) {
  const std::string body = lowered(trimmed(text));
  if (body == "0" || body == "off" || body == "false" || body == "no")
    return false;
  if (body == "1" || body == "on" || body == "true" || body == "yes")
    return true;
  throw std::invalid_argument(name +
                              ": expected one of 0/off/false/no or "
                              "1/on/true/yes, got \"" +
                              text + "\"");
}

std::uint64_t read_u64(const char* name, std::uint64_t fallback,
                       std::uint64_t min_value, std::uint64_t max_value) {
  if (name == nullptr)
    throw std::invalid_argument("env::read_u64: null variable name");
  const char* raw = std::getenv(name);
  if (raw == nullptr || trimmed(raw).empty()) return fallback;
  return parse_u64(name, raw, min_value, max_value);
}

bool read_flag(const char* name, bool fallback) {
  if (name == nullptr)
    throw std::invalid_argument("env::read_flag: null variable name");
  const char* raw = std::getenv(name);
  if (raw == nullptr || trimmed(raw).empty()) return fallback;
  return parse_flag(name, raw);
}

}  // namespace stf::core::env
