/**
 * @file
 * Tests for the safety-invariant monitor (src/stack/safety.hh):
 * name round-trips, a clean replay staying violation-free, each
 * invariant class firing under the fault that provokes it, the
 * latched one-record-per-breach semantics, the deadline's terminal
 * topic and its drain at stop(), and violations riding through
 * RunResult.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/characterization.hh"
#include "core/run_result.hh"
#include "fault/fault.hh"
#include "stack/autoware_stack.hh"
#include "stack/safety.hh"
#include "world/recorder.hh"
#include "world/scenario.hh"

namespace {

using namespace av;
using av::sim::oneMs;
using av::sim::oneSec;

prof::RunConfig
safeConfig(const stack::SafetyOptions &options =
               stack::SafetyOptions())
{
    prof::RunConfig cfg;
    cfg.stack.degraded = true;
    cfg.safety = options;
    cfg.safety.enabled = true;
    return cfg;
}

TEST(SafetyMonitor, InvariantNamesRoundTrip)
{
    const stack::InvariantKind all[] = {
        stack::InvariantKind::TrackContinuity,
        stack::InvariantKind::LocalizationError,
        stack::InvariantKind::DeadlineStreak,
        stack::InvariantKind::PipelineLiveness,
    };
    for (stack::InvariantKind kind : all) {
        stack::InvariantKind back =
            stack::InvariantKind::TrackContinuity;
        ASSERT_TRUE(stack::invariantFromName(
            stack::invariantName(kind), back));
        EXPECT_EQ(back, kind);
    }
    stack::InvariantKind out;
    EXPECT_FALSE(stack::invariantFromName("bogus", out));
}

TEST(SafetyMonitor, ViolationLabelIsTokenSafe)
{
    stack::SafetyViolation v;
    v.kind = stack::InvariantKind::LocalizationError;
    v.time = 2500 * oneMs;
    v.subject = "/ndt_pose";
    EXPECT_EQ(stack::violationLabel(v),
              "localization_error@2500ms:/ndt_pose");
}

TEST(SafetyMonitor, CleanRunRecordsNoViolations)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 8 * oneSec);

    prof::CharacterizationRun run(drive, safeConfig());
    run.execute();

    const auto violations = run.safetyViolations();
    for (const stack::SafetyViolation &v : violations)
        ADD_FAILURE() << "unexpected violation: "
                      << stack::violationLabel(v);
    EXPECT_TRUE(violations.empty());
}

TEST(SafetyMonitor, DisabledMonitorRecordsNothing)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 4 * oneSec);

    prof::RunConfig cfg;
    cfg.faults = fault::FaultPlan().lidarBlackout(oneSec, 2 * oneSec);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();
    EXPECT_TRUE(run.safetyViolations().empty());
}

TEST(SafetyMonitor, LidarBlackoutBreachesLocalizationBound)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 8 * oneSec);

    prof::RunConfig cfg = safeConfig();
    // A long LiDAR silence stalls NDT; the ego keeps moving at
    // ~8 m/s, so the stale pose diverges past the 3 m bound well
    // before the window closes.
    cfg.faults =
        fault::FaultPlan().lidarBlackout(2 * oneSec, 3 * oneSec);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const auto violations = run.safetyViolations();
    std::uint64_t localization = 0;
    for (const stack::SafetyViolation &v : violations) {
        if (v.kind != stack::InvariantKind::LocalizationError)
            continue;
        ++localization;
        // Detected inside or shortly after the fault window.
        EXPECT_GE(v.time, 2 * oneSec);
        EXPECT_EQ(v.subject, "/ndt_pose");
        EXPECT_GT(v.value, v.bound);
    }
    EXPECT_GE(localization, 1u);
    // Latched: the sustained divergence yields one record, not one
    // per sample.
    EXPECT_LE(localization, 3u);
}

TEST(SafetyMonitor, LidarBlackoutEscalatesLiveness)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 8 * oneSec);

    prof::RunConfig cfg = safeConfig();
    cfg.faults =
        fault::FaultPlan().lidarBlackout(2 * oneSec, 3 * oneSec);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    bool liveness = false;
    for (const stack::SafetyViolation &v : run.safetyViolations())
        if (v.kind == stack::InvariantKind::PipelineLiveness) {
            liveness = true;
            // The breach is recorded once silence exceeds the
            // threshold, i.e. at least livenessAfter into the gap.
            EXPECT_GE(v.time, 2 * oneSec + oneSec);
            EXPECT_GE(v.value, 2000.0);
        }
    EXPECT_TRUE(liveness);
}

TEST(SafetyMonitor, TightDeadlineTriggersStreakViolation)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    stack::SafetyOptions tight;
    // An absurd 1 ms end-to-end budget: every terminal publication
    // misses, so the streak invariant must fire (and only once —
    // the condition never clears).
    tight.deadlineMs = 1.0;
    tight.deadlineMissStreak = 5;
    prof::CharacterizationRun run(drive, safeConfig(tight));
    run.execute();

    EXPECT_EQ(prof::snapshotRun(run).violationsOf(
                  stack::InvariantKind::DeadlineStreak),
              1u);
}

TEST(SafetyMonitor, DeadlineFallsBackToObjectsWithoutCostmap)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    stack::SafetyOptions tight;
    tight.deadlineMs = 1.0;
    tight.deadlineMissStreak = 5;
    prof::RunConfig cfg = safeConfig(tight);
    // The costmap topic is still declared, but nobody publishes it:
    // the deadline must follow the predicted-objects output instead.
    cfg.stack.enableCostmap = false;
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const auto violations = run.safetyViolations();
    std::size_t streaks = 0;
    for (const stack::SafetyViolation &v : violations)
        if (v.kind == stack::InvariantKind::DeadlineStreak) {
            ++streaks;
            EXPECT_EQ(v.subject, perception::topics::objects);
        }
    EXPECT_EQ(streaks, 1u);
}

TEST(SafetyMonitor, StopJudgesPublicationsAfterTheLastSample)
{
    trace::Recorder recorder; // outlives the graph's topics
    sim::EventQueue eq;
    const hw::MachineConfig mcfg;
    hw::Machine machine{eq, mcfg};
    ros::RosGraph graph{machine};
    graph.setTraceRecorder(&recorder);
    auto pub = graph.advertise<int>(perception::topics::costmap,
                                    "costmap_generator");
    stack::StackOptions off;
    off.enableVision = false;
    off.enableLocalization = false;
    off.enableLidarDetection = false;
    off.enableTracking = false;
    off.enableCostmap = false;
    const stack::AutowareStack stack(graph, pc::PointCloud(), off);
    const world::Scenario scenario;

    stack::SafetyOptions options;
    options.enabled = true;
    options.deadlineMs = 1.0;
    options.deadlineMissStreak = 1;
    stack::SafetyMonitor monitor(graph, stack, scenario, options, 0);
    monitor.start();
    // Samples at 100 ms and 200 ms; the publication lands between
    // the last sample and stop().
    eq.schedule(250 * oneMs, [&] {
        ros::Header h;
        h.stamp = eq.now();
        h.origins.lidar = 10 * oneMs;
        pub.publish(h, 0, 64);
    });
    eq.runUntil(280 * oneMs);
    EXPECT_TRUE(monitor.violations().empty());
    monitor.stop();

    ASSERT_EQ(monitor.violations().size(), 1u);
    const stack::SafetyViolation &v = monitor.violations()[0];
    EXPECT_EQ(v.kind, stack::InvariantKind::DeadlineStreak);
    EXPECT_EQ(v.time, 250 * oneMs);
    EXPECT_EQ(v.subject, perception::topics::costmap);
}

TEST(SafetyMonitor, ViolationsRideThroughRunResult)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 8 * oneSec);

    prof::RunConfig cfg = safeConfig();
    cfg.faults =
        fault::FaultPlan().lidarBlackout(2 * oneSec, 3 * oneSec);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const prof::RunResult result = prof::snapshotRun(run, "x");
    EXPECT_EQ(result.violations.size(),
              run.safetyViolations().size());
    ASSERT_FALSE(result.violations.empty());
    EXPECT_GT(result.violationsOf(
                  stack::InvariantKind::LocalizationError),
              0u);
}

} // namespace
