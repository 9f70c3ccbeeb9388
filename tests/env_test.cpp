// Unit tests for the unified STF_* environment parsing (core/env.hpp):
// overflow-safe numeric accumulation (2^64 + 1 must reject, never wrap),
// range enforcement, garbage rejection for numbers and flags, unset/empty
// fallback semantics, and the routed knobs (parse_thread_count delegating,
// STF_SIMD/STF_TELEMETRY token sets).
#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"

namespace {

namespace env = stf::core::env;

/// Scoped setenv/unsetenv so tests cannot leak state into each other.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvVarGuard() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(EnvParseU64, AcceptsInRangeValuesWithWhitespace) {
  EXPECT_EQ(env::parse_u64("X", "0", 0, 10), 0u);
  EXPECT_EQ(env::parse_u64("X", "7", 1, 1024), 7u);
  EXPECT_EQ(env::parse_u64("X", "  42 ", 1, 1024), 42u);
  EXPECT_EQ(env::parse_u64("X", "1024", 1, 1024), 1024u);
  EXPECT_EQ(env::parse_u64("X", "18446744073709551615", 0,
                           UINT64_C(18446744073709551615)),
            UINT64_C(18446744073709551615));
}

TEST(EnvParseU64, RejectsGarbage) {
  for (const char* bad : {"", "   ", "abc", "-1", "+4", "4x", "1 2", "0x10",
                          "3.5", "１２"}) {
    EXPECT_THROW(env::parse_u64("STF_TEST", bad, 0, 100),
                 std::invalid_argument)
        << "input: \"" << bad << "\"";
  }
}

TEST(EnvParseU64, RejectsOverflowBeforeItCanWrap) {
  // 2^64 = 18446744073709551616; 2^64 + 1 would wrap to 1 with naive
  // accumulation and 1 is in range -- the reject-before-wrap contract says
  // it must throw instead.
  EXPECT_THROW(env::parse_u64("STF_TEST", "18446744073709551616", 1, 1024),
               std::invalid_argument);
  EXPECT_THROW(env::parse_u64("STF_TEST", "18446744073709551617", 1, 1024),
               std::invalid_argument);
  EXPECT_THROW(
      env::parse_u64("STF_TEST", "99999999999999999999999999", 1, 1024),
      std::invalid_argument);
}

TEST(EnvParseU64, EnforcesTheRangeAndNamesTheVariable) {
  EXPECT_THROW(env::parse_u64("STF_TEST", "0", 1, 1024),
               std::invalid_argument);
  EXPECT_THROW(env::parse_u64("STF_TEST", "1025", 1, 1024),
               std::invalid_argument);
  try {
    env::parse_u64("STF_PORT_LIKE", "70000", 0, 65535);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("STF_PORT_LIKE"), std::string::npos);
  }
}

TEST(EnvParseDouble, AcceptsFiniteNumbersInTheirWholeText) {
  EXPECT_EQ(env::parse_double("x", "0.12"), 0.12);
  EXPECT_EQ(env::parse_double("x", "-2e3"), -2e3);
  EXPECT_EQ(env::parse_double("x", "1.7976931348623157e308"),
            1.7976931348623157e308);
  // A subnormal is finite: it parses rather than escaping as out_of_range.
  EXPECT_GT(env::parse_double("x", "1e-320"), 0.0);
}

TEST(EnvParseDouble, RejectsGarbageOverflowAndNonFiniteNamingTheField) {
  for (const char* bad : {"", "abc", "0.1x", " 0.1", "0.1 ", "+0.1", "0,1",
                          "1e999", "-1e999", "1e-400", "inf", "nan"})
    EXPECT_THROW(env::parse_double("x", bad), std::invalid_argument) << bad;
  try {
    env::parse_double("clip level", "1e999");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clip level"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1e999"), std::string::npos);
  }
}

TEST(EnvParseFlag, AcceptsTheDocumentedTokensCaseInsensitively) {
  for (const char* t : {"1", "on", "ON", "true", "True", "yes", " YES "})
    EXPECT_TRUE(env::parse_flag("X", t)) << t;
  for (const char* f : {"0", "off", "OFF", "false", "FALSE", "no", " No "})
    EXPECT_FALSE(env::parse_flag("X", f)) << f;
}

TEST(EnvParseFlag, RejectsUnknownTokens) {
  for (const char* bad : {"2", "enable", "banana", "o n", "offf"})
    EXPECT_THROW(env::parse_flag("STF_TEST", bad), std::invalid_argument)
        << bad;
}

TEST(EnvReadU64, UnsetOrEmptyFallsBackPresentMustParse) {
  constexpr const char* kVar = "STF_ENV_TEST_U64";
  {
    const EnvVarGuard unset(kVar, nullptr);
    EXPECT_EQ(env::read_u64(kVar, 99, 1, 1024), 99u);
  }
  {
    const EnvVarGuard empty(kVar, "   ");
    EXPECT_EQ(env::read_u64(kVar, 99, 1, 1024), 99u);
  }
  {
    const EnvVarGuard set(kVar, "640");
    EXPECT_EQ(env::read_u64(kVar, 99, 1, 1024), 640u);
  }
  {
    const EnvVarGuard bad(kVar, "lots");
    EXPECT_THROW(env::read_u64(kVar, 99, 1, 1024), std::invalid_argument);
  }
  {
    const EnvVarGuard wrap(kVar, "18446744073709551617");
    EXPECT_THROW(env::read_u64(kVar, 99, 1, 1024), std::invalid_argument);
  }
}

TEST(EnvReadFlag, UnsetOrEmptyFallsBackPresentMustParse) {
  constexpr const char* kVar = "STF_ENV_TEST_FLAG";
  {
    const EnvVarGuard unset(kVar, nullptr);
    EXPECT_TRUE(env::read_flag(kVar, true));
    EXPECT_FALSE(env::read_flag(kVar, false));
  }
  {
    const EnvVarGuard off(kVar, "off");
    EXPECT_FALSE(env::read_flag(kVar, true));
  }
  {
    const EnvVarGuard bad(kVar, "maybe");
    EXPECT_THROW(env::read_flag(kVar, true), std::invalid_argument);
  }
}

TEST(EnvRoutedKnobs, ParseThreadCountDelegatesWithItsHistoricalRange) {
  EXPECT_EQ(stf::core::parse_thread_count("1"), 1u);
  EXPECT_EQ(stf::core::parse_thread_count(" 16 "), 16u);
  EXPECT_EQ(stf::core::parse_thread_count("1024"), 1024u);
  for (const char* bad : {"", "0", "1025", "four", "-2",
                          "18446744073709551617"})
    EXPECT_THROW(stf::core::parse_thread_count(bad), std::invalid_argument)
        << bad;
}

}  // namespace
