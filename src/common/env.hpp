// Environment-variable overrides for the bench harnesses, and the strict
// number parsing they share with the tools' command-line flags.
//
// Every bench ships laptop-scale defaults but honours MIFO_* env vars so the
// experiments can be rerun at paper scale (documented in EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mifo {

/// Parses all of `text` as a decimal count: digits only (no sign, no
/// whitespace), within uint64. nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);
/// Parses all of `text` as a finite decimal number. nullopt otherwise.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// Returns the env var parsed as the requested type, or `fallback` when the
/// variable is unset or unparsable.
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

}  // namespace mifo
