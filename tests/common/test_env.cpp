#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

namespace mifo {
namespace {

TEST(Env, U64Fallback) {
  ::unsetenv("MIFO_TEST_U64");
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 42), 42u);
}

TEST(Env, U64Parses) {
  ::setenv("MIFO_TEST_U64", "1234", 1);
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 0), 1234u);
  ::unsetenv("MIFO_TEST_U64");
}

TEST(Env, U64GarbageFallsBack) {
  // Digits only: a sign or a leading blank is garbage too (strtoull would
  // turn "-3" into 2^64 - 3), and so is a count past uint64.
  for (const char* bad :
       {"12x", "", "-3", "+5", " 5", "18446744073709551616"}) {
    ::setenv("MIFO_TEST_U64", bad, 1);
    EXPECT_EQ(env_u64("MIFO_TEST_U64", 9), 9u) << "'" << bad << "'";
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
  ::unsetenv("MIFO_TEST_U64");
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(Env, DoubleParses) {
  ::setenv("MIFO_TEST_D", "0.75", 1);
  EXPECT_DOUBLE_EQ(env_double("MIFO_TEST_D", 0.0), 0.75);
  for (const char* bad : {"inf", "nan", "1e999", "0.2x", " 0.2", ""}) {
    ::setenv("MIFO_TEST_D", bad, 1);
    EXPECT_DOUBLE_EQ(env_double("MIFO_TEST_D", 0.5), 0.5) << "'" << bad << "'";
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
  ::unsetenv("MIFO_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("MIFO_TEST_D", 0.5), 0.5);
}

TEST(Env, StringParses) {
  ::setenv("MIFO_TEST_S", "hello", 1);
  EXPECT_EQ(env_string("MIFO_TEST_S", "x"), "hello");
  ::unsetenv("MIFO_TEST_S");
  EXPECT_EQ(env_string("MIFO_TEST_S", "fallback"), "fallback");
}

}  // namespace
}  // namespace mifo
