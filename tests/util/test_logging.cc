/**
 * @file
 * Unit tests for util/logging: formatting, fatal/panic
 * semantics (gem5 convention: fatal = user error/exit(1), panic =
 * internal bug/abort()).
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace av::util;

TEST(Logging, FormatConcatenatesMixedTypes)
{
    EXPECT_EQ(detail::format("x=", 42, " y=", 1.5, " s=", "ok"),
              "x=42 y=1.5 s=ok");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config value ", 7),
                ::testing::ExitedWithCode(1), "bad config value 7");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("internal invariant ", "broken"),
                 "internal invariant broken");
}

TEST(LoggingDeath, AssertMacroFiresOnFalse)
{
    EXPECT_DEATH(AV_ASSERT(1 == 2, "math left the building"),
                 "assertion failed");
}

TEST(Logging, AssertMacroPassesOnTrue)
{
    AV_ASSERT(2 + 2 == 4, "never printed");
    SUCCEED();
}

} // namespace
