/**
 * @file
 * Tests for CharacterizationRun's input checks and ownership: a
 * localizing replay needs the drive's map, an isolated one does not
 * read it, and a run keeps the drive its replay refers to alive.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/characterization.hh"

namespace {

using namespace av;

TEST(Characterization, LocalizingRunWithoutMapThrows)
{
    world::ScenarioConfig scenario;
    const auto drive = prof::recordDriveBag(scenario, 2 * sim::oneSec);
    ASSERT_TRUE(drive->map.empty());

    prof::RunConfig localizing;
    ASSERT_TRUE(localizing.stack.enableLocalization);
    try {
        prof::CharacterizationRun run(drive, localizing);
        FAIL() << "a localizing run accepted a drive without a map";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("without a map"),
                  std::string::npos)
            << error.what();
    }

    // The same map-less drive serves a run that does not localize.
    prof::RunConfig isolated;
    isolated.stack.enableLocalization = false;
    prof::CharacterizationRun run(drive, isolated);
    run.execute();
    EXPECT_EQ(run.stack().ndt(), nullptr);
}

TEST(Characterization, RunKeepsItsDriveAlive)
{
    // The replay's events refer to the bag's messages, so a run must
    // own its drive: the caller here drops its pointer before
    // execute(). The sanitizer builds turn a dangling reference into
    // a failure.
    world::ScenarioConfig scenario;
    std::shared_ptr<prof::DriveData> drive =
        prof::recordDriveBag(scenario, 2 * sim::oneSec);
    const std::weak_ptr<prof::DriveData> watch = drive;
    prof::RunConfig isolated;
    isolated.stack.enableLocalization = false;
    prof::CharacterizationRun run(drive, isolated);
    drive.reset();
    EXPECT_FALSE(watch.expired());
    run.execute();
    EXPECT_GT(run.graph().transportCounters().deliveries, 0u);
}

} // namespace
