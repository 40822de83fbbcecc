/**
 * @file
 * Tests for the CSV run-report writer: files exist, parse as CSV,
 * and agree with the in-memory measurements.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/report.hh"
#include "test_dir.hh"

namespace {

using namespace av;

std::vector<std::vector<std::string>>
readCsv(const std::filesystem::path &path)
{
    std::vector<std::vector<std::string>> rows;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            cells.push_back(cell);
        rows.push_back(std::move(cells));
    }
    return rows;
}

TEST(Report, WritesAllFilesWithConsistentContent)
{
    world::ScenarioConfig scenario;
    scenario.seed = 55;
    auto drive = prof::makeDrive(scenario, 10 * sim::oneSec);
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd300;
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const std::string dir = av::test::freshTestDir();
    ASSERT_TRUE(prof::writeRunReport(run, dir));

    for (const char *name :
         {"node_latency.csv", "paths.csv", "drops.csv",
          "utilization.csv", "power.csv", "counters.csv"}) {
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(dir) / name))
            << name;
    }

    // node_latency.csv: header + one row per latency series, and
    // the mean column matches the in-memory summary.
    const auto latency =
        readCsv(std::filesystem::path(dir) / "node_latency.csv");
    const auto summaries = prof::snapshotRun(run).nodeLatencies();
    ASSERT_EQ(latency.size(), summaries.size() + 1);
    EXPECT_EQ(latency[0][0], "node");
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        EXPECT_EQ(latency[i + 1][0], summaries[i].name);
        EXPECT_NEAR(std::stod(latency[i + 1][5]),
                    summaries[i].summary.mean, 1e-3)
            << summaries[i].name;
    }

    // paths.csv: the four Table IV paths.
    const auto paths =
        readCsv(std::filesystem::path(dir) / "paths.csv");
    ASSERT_EQ(paths.size(), 5u);
    EXPECT_EQ(paths[1][0], "localization");
    EXPECT_GT(std::stod(paths[1][4]), 0.0); // mean_ms

    // power.csv: cpu and gpu rows with sane watts.
    const auto power =
        readCsv(std::filesystem::path(dir) / "power.csv");
    ASSERT_EQ(power.size(), 3u);
    EXPECT_EQ(power[1][0], "cpu");
    EXPECT_NEAR(std::stod(power[1][1]),
                run.monitor().cpuWatts().mean(), 1e-2);
    EXPECT_EQ(power[2][0], "gpu");

    // counters.csv: vision row has the SSD branch-miss signature.
    const auto counters =
        readCsv(std::filesystem::path(dir) / "counters.csv");
    bool saw_vision = false;
    for (const auto &row : counters) {
        if (row[0] == "vision_detection") {
            saw_vision = true;
            EXPECT_GT(std::stod(row[4]), 0.01); // branch_miss
        }
    }
    EXPECT_TRUE(saw_vision);

    std::filesystem::remove_all(dir);
}

TEST(Report, FailsOnUnwritableDirectory)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 2 * sim::oneSec);
    prof::CharacterizationRun run(drive, prof::RunConfig{});
    run.execute();
    EXPECT_FALSE(prof::writeRunReport(
        run, "/proc/definitely/not/writable"));
}

} // namespace
