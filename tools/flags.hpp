// Numeric flag values for the command-line tools. The whole argument must
// be the number (common/env.hpp's parse_u64 / parse_double): `--seed abc`,
// `--gen 40x` or `--dests -3` is an input error naming the flag, never a
// silently truncated or wrapped value.
#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

#include "common/env.hpp"

namespace mifo::tools {

/// Parses `text` into `out`: a non-negative integer for integral T, a
/// finite number for floating-point T. On garbage prints
/// "<tool>: <flag>: invalid value '<text>'" to stderr and returns false.
template <typename T>
bool parse_flag(const char* tool, const std::string& flag, const char* text,
                T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    if (const auto v = parse_double(text)) {
      out = *v;
      return true;
    }
  } else {
    if (const auto v = parse_u64(text)) {
      out = static_cast<T>(*v);
      return true;
    }
  }
  std::fprintf(stderr, "%s: %s: invalid value '%s'\n", tool, flag.c_str(),
               text);
  return false;
}

}  // namespace mifo::tools
