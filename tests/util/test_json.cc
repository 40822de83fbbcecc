/**
 * @file
 * Unit tests for util/json: string escaping and the JsonWriter's
 * two layouts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "util/json.hh"

namespace {

using av::util::jsonEscape;
using av::util::JsonWriter;

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

TEST(JsonWriter, BlockContainersIndentTwoSpacesPerLevel)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.object().field("bench", "x", "n", 3).key("runs").array();
    json.object().field("label", "a").end();
    json.object().end();
    json.end().key("none").array().end().end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"bench\": \"x\",\n"
                        "  \"n\": 3,\n"
                        "  \"runs\": [\n"
                        "    {\n"
                        "      \"label\": \"a\"\n"
                        "    },\n"
                        "    {\n"
                        "    }\n"
                        "  ],\n"
                        "  \"none\": [\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, InlineContainersStayOnOneLine)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.object().key("rows").inlineArray();
    json.row("k", "v", "ok", true);
    json.row("off", false);
    json.end().key("empty").inlineObject().end();
    json.key("xs").inlineArray().value(1).value("two");
    json.end().end();
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"rows\": [{\"k\": \"v\", \"ok\": true}, "
              "{\"off\": false}],\n"
              "  \"empty\": {},\n"
              "  \"xs\": [1, \"two\"]\n"
              "}\n");
}

TEST(JsonWriter, NumbersUseTheStreamDefaultAndStringsAreEscaped)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.inlineArray()
        .value(15.151515151)
        .value(1e-7)
        .value(2.0)
        .value(std::uint64_t{18446744073709551615u})
        .value(-4)
        .value("say \"hi\"\n")
        .end();
    EXPECT_EQ(os.str(), "[15.1515, 1e-07, 2, 18446744073709551615, "
                        "-4, \"say \\\"hi\\\"\\n\"]\n");
    // Keys are escaped too.
    std::ostringstream keyed;
    JsonWriter(keyed).row("a\"b", 1);
    EXPECT_EQ(keyed.str(), "{\"a\\\"b\": 1}\n");
}

} // namespace
