/**
 * @file
 * Unit tests for util/json string escaping.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/json.hh"

namespace {

using av::util::jsonEscape;

TEST(JsonEscape, PlainTextPassesThrough)
{
    EXPECT_EQ(jsonEscape(""), "");
    EXPECT_EQ(jsonEscape("/points_raw -> ndt_matching"),
              "/points_raw -> ndt_matching");
    // UTF-8 bytes are not control bytes.
    EXPECT_EQ(jsonEscape("\xc2\xb5s"), "\xc2\xb5s");
}

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ControlBytes)
{
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape("\b\f"), "\\b\\f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
    // 0x7f (DEL) is not a JSON control byte.
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
}

} // namespace
