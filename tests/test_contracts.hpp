// Expectations that hold only while contract checks are compiled in
// (src/core/contracts.hpp). A -DSIGTEST_CHECKED=OFF build compiles the
// STF_REQUIRE family to nothing, so a call that only a contract rejects
// then runs unchecked on input it was never meant to see. These macros
// leave such checks out of that build; a checked build runs every one of
// them unchanged.
#pragma once

#include <gtest/gtest.h>

#include "core/contracts.hpp"

/// Skip the rest of a test whose checks all need contracts compiled in.
#define SKIP_IF_UNCHECKED()                                           \
  do {                                                                \
    if (!stf::contracts::enabled())                                   \
      GTEST_SKIP() << "contracts compiled out (SIGTEST_CHECKED=OFF)"; \
  } while (0)

/// EXPECT_THROW(statement, exception) for a throw that a contract raises;
/// the statement does not run when contracts are compiled out.
#define EXPECT_CONTRACT_THROW(statement, exception) \
  do {                                              \
    if (stf::contracts::enabled()) {                \
      EXPECT_THROW(statement, exception);           \
    }                                               \
  } while (0)
