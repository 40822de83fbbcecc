/**
 * @file
 * bench::writeArtifact: the one open → emit → flush → report path
 * of every bench's --json artifact, and its failure status.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common.hh"
#include "test_dir.hh"

namespace {

using av::bench::writeArtifact;
using av::util::JsonWriter;

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
emitRow(JsonWriter &json)
{
    json.row("a", 1);
}

TEST(WriteArtifact, WritesWhatEmitProduces)
{
    const std::string path = av::test::freshTestDir() + "/out.json";
    EXPECT_TRUE(writeArtifact(path, emitRow));
    EXPECT_EQ(slurp(path), "{\"a\": 1}\n");
}

TEST(WriteArtifact, EmptyPathSkipsTheArtifact)
{
    bool emitted = false;
    EXPECT_TRUE(
        writeArtifact("", [&](JsonWriter &) { emitted = true; }));
    EXPECT_FALSE(emitted);
}

TEST(WriteArtifact, PathInAMissingDirectoryFails)
{
    const std::string path =
        av::test::freshTestDir() + "/missing/out.json";
    bool emitted = false;
    EXPECT_FALSE(
        writeArtifact(path, [&](JsonWriter &) { emitted = true; }));
    EXPECT_FALSE(emitted);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WriteArtifact, FailedFlushFails)
{
    // Every write to /dev/full fails with ENOSPC, so the open
    // succeeds and only the flush can tell.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    EXPECT_FALSE(writeArtifact("/dev/full", emitRow));
}

} // namespace
