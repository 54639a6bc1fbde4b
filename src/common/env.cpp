#include "common/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace mifo {

namespace {

/// std::from_chars over the whole of `text`: no sign for unsigned types, no
/// leading whitespace, no trailing characters, no overflow.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  const std::optional<double> v = parse_whole<double>(text);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : parse_u64(raw).value_or(fallback);
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : parse_double(raw).value_or(fallback);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

}  // namespace mifo
