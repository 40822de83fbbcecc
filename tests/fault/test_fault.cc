/**
 * @file
 * Tests for av::fault: plan building, deterministic transport
 * disruption (blackout / loss / delay / duplicate / corrupt), node
 * crash + respawn semantics, GPU throttle windows, plan validation,
 * the recovery and staleness probes, and whole-stack graceful
 * degradation (LiDAR-only fusion, tracker coasting, NDT reseeding,
 * the stale-event counter).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/characterization.hh"
#include "core/probes.hh"
#include "fault/fault.hh"
#include "world/recorder.hh"

namespace {

using namespace av;
using av::sim::oneMs;
using av::sim::oneSec;
using av::sim::Tick;

struct IntMsg
{
    int value = 0;
};

struct Rig
{
    sim::EventQueue eq;
    hw::MachineConfig mcfg;
    hw::Machine machine{eq, mcfg};
    ros::RosGraph graph{machine};
};

double
counterOf(const std::vector<std::pair<std::string, double>> &table,
          const std::string &name)
{
    for (const auto &[key, value] : table)
        if (key == name)
            return value;
    return -1.0;
}

TEST(FaultPlan, KindNamesRoundTrip)
{
    const fault::FaultKind all[] = {
        fault::FaultKind::LidarBlackout,
        fault::FaultKind::CameraBlackout,
        fault::FaultKind::GnssBlackout,
        fault::FaultKind::FrameLoss,
        fault::FaultKind::NodeCrash,
        fault::FaultKind::MessageDelay,
        fault::FaultKind::MessageDuplicate,
        fault::FaultKind::MessageCorrupt,
        fault::FaultKind::GpuThrottle,
    };
    for (const fault::FaultKind kind : all) {
        fault::FaultKind back = fault::FaultKind::LidarBlackout;
        ASSERT_TRUE(
            fault::faultKindFromName(fault::faultKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    fault::FaultKind out;
    EXPECT_FALSE(fault::faultKindFromName("martian_dust", out));
}

TEST(FaultPlan, LabelsAndWindowsDeriveFromSpec)
{
    fault::FaultPlan plan;
    plan.cameraBlackout(2 * oneSec, oneSec)
        .nodeCrash("euclidean_cluster", 3 * oneSec, 500 * oneMs);
    EXPECT_EQ(fault::faultLabel(plan.faults[0]),
              "camera_blackout@2000ms");
    EXPECT_EQ(fault::faultWindowEnd(plan.faults[0]), 3 * oneSec);
    // A crash's disturbance window ends at the respawn.
    EXPECT_EQ(fault::faultWindowEnd(plan.faults[1]),
              3 * oneSec + 500 * oneMs);
    EXPECT_EQ(fault::defaultWatchTopic(plan.faults[0]),
              perception::topics::fusedObjects);
    EXPECT_EQ(fault::defaultWatchTopic(plan.faults[1]),
              perception::topics::objects);
}

TEST(FaultInjector, BlackoutSuppressesOnlyInsideWindow)
{
    trace::Recorder recorder; // outlives the rig's topics
    Rig rig;
    rig.graph.setTraceRecorder(&recorder);
    ros::Node sink(rig.graph, "sink");
    std::vector<int> seen;
    sink.subscribe<IntMsg>(
        world::topics::pointsRaw, 10,
        [&](const ros::Stamped<IntMsg> &msg,
            std::function<void()> done) {
            seen.push_back(msg.data.value);
            done();
        });
    auto pub = rig.graph.advertise<IntMsg>(world::topics::pointsRaw);

    fault::FaultPlan plan;
    plan.lidarBlackout(10 * oneMs, 20 * oneMs); // window [10, 30) ms
    fault::FaultInjector injector(rig.graph, plan);
    injector.arm();

    const Tick at[] = {5 * oneMs, 15 * oneMs, 25 * oneMs, 35 * oneMs};
    for (int i = 0; i < 4; ++i)
        rig.eq.schedule(at[i], [&pub, i] {
            pub.publish(ros::Header{}, IntMsg{i}, 64);
        });
    rig.eq.runUntil();

    EXPECT_EQ(seen, (std::vector<int>{0, 3}));
    // The recorder logs the publisher's output before the wire
    // loses it: the suppressed publications are in the log too.
    const auto *log = recorder.publishLog(world::topics::pointsRaw);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->size(), 4u);
    EXPECT_EQ(injector.outcomes()[0].suppressed, 2u);
}

TEST(FaultInjector, FrameLossIsSeededAndReplayable)
{
    const auto run = [](std::uint64_t seed) {
        Rig rig;
        ros::Node sink(rig.graph, "sink");
        std::vector<int> seen;
        sink.subscribe<IntMsg>(
            "/t", 64,
            [&](const ros::Stamped<IntMsg> &msg,
                std::function<void()> done) {
                seen.push_back(msg.data.value);
                done();
            });
        auto pub = rig.graph.advertise<IntMsg>("/t");
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.frameLoss("/t", 0, oneSec, 0.5);
        fault::FaultInjector injector(rig.graph, plan);
        injector.arm();
        for (int i = 0; i < 40; ++i)
            rig.eq.schedule(static_cast<Tick>(i) * oneMs, [&pub, i] {
                pub.publish(ros::Header{}, IntMsg{i}, 64);
            });
        rig.eq.runUntil();
        return seen;
    };
    const std::vector<int> a = run(7);
    const std::vector<int> b = run(7);
    const std::vector<int> c = run(8);
    EXPECT_EQ(a, b);       // same seed, same losses
    EXPECT_NE(a, c);       // different stream
    EXPECT_GT(a.size(), 0u);
    EXPECT_LT(a.size(), 40u); // p=0.5 drops something
}

TEST(FaultInjector, NodeCrashDrainsQueueAndRespawns)
{
    Rig rig;

    struct RespawnNode : ros::Node
    {
        using ros::Node::Node;
        int respawns = 0;
        void onRespawn() override { ++respawns; }
    };

    RespawnNode node(rig.graph, "victim");
    std::vector<int> seen;
    node.subscribe<IntMsg>(
        "/t", 10,
        [&](const ros::Stamped<IntMsg> &msg,
            std::function<void()> done) {
            seen.push_back(msg.data.value);
            rig.eq.scheduleAfter(20 * oneMs, done); // slow handler
        });
    auto pub = rig.graph.advertise<IntMsg>("/t");

    fault::FaultPlan plan;
    plan.nodeCrash("victim", 5 * oneMs, 10 * oneMs); // down [5, 15) ms
    fault::FaultInjector injector(rig.graph, plan);
    injector.arm();

    const Tick at[] = {0, 1 * oneMs, 10 * oneMs, 30 * oneMs};
    for (int i = 0; i < 4; ++i)
        rig.eq.schedule(at[i], [&pub, i] {
            pub.publish(ros::Header{}, IntMsg{i}, 64);
        });
    rig.eq.runUntil();

    // m0 is in flight at crash time and completes; m1 was queued and
    // is drained by the crash; m2 arrives while down and is
    // discarded; m3 arrives after respawn and processes normally.
    EXPECT_EQ(seen, (std::vector<int>{0, 3}));
    EXPECT_EQ(node.respawns, 1);
    EXPECT_FALSE(node.down());
    EXPECT_EQ(node.subscriptions()[0]->stats().crashDiscarded, 2u);
}

TEST(FaultInjector, MessageDelayAddsTransportLatency)
{
    Rig rig;
    ros::Node sink(rig.graph, "sink");
    std::vector<Tick> arrivals;
    sink.subscribe<IntMsg>(
        "/t", 10,
        [&](const ros::Stamped<IntMsg> &,
            std::function<void()> done) {
            arrivals.push_back(rig.eq.now());
            done();
        });
    auto pub = rig.graph.advertise<IntMsg>("/t");
    fault::FaultPlan plan;
    plan.messageDelay("/t", 0, oneSec, 5 * oneMs);
    fault::FaultInjector injector(rig.graph, plan);
    injector.arm();
    pub.publish(ros::Header{}, IntMsg{}, 64);
    rig.eq.runUntil();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_GE(arrivals[0], 5 * oneMs);
    EXPECT_EQ(injector.outcomes()[0].delayed, 1u);
}

TEST(FaultInjector, DuplicateAndCorruptDisruptDeliveries)
{
    Rig rig;
    ros::Node sink(rig.graph, "sink");
    std::vector<std::uint64_t> seqs;
    sink.subscribe<IntMsg>(
        "/dup", 10,
        [&](const ros::Stamped<IntMsg> &msg,
            std::function<void()> done) {
            seqs.push_back(msg.header.seq);
            done();
        });
    int corrupt_seen = 0;
    sink.subscribe<IntMsg>(
        "/bad", 10,
        [&](const ros::Stamped<IntMsg> &,
            std::function<void()> done) {
            ++corrupt_seen;
            done();
        });
    auto dup_pub = rig.graph.advertise<IntMsg>("/dup");
    auto bad_pub = rig.graph.advertise<IntMsg>("/bad");

    fault::FaultPlan plan;
    plan.messageDuplicate("/dup", 0, oneSec, 1.0)
        .messageCorrupt("/bad", 0, oneSec, 1.0);
    fault::FaultInjector injector(rig.graph, plan);
    injector.arm();

    dup_pub.publish(ros::Header{}, IntMsg{}, 64);
    bad_pub.publish(ros::Header{}, IntMsg{}, 64);
    rig.eq.runUntil();

    // The duplicate arrives as a second delivery of the same seq;
    // the corrupted message crosses the wire but never delivers.
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 0}));
    EXPECT_EQ(corrupt_seen, 0);
    EXPECT_EQ(injector.outcomes()[0].duplicated, 1u);
    EXPECT_EQ(injector.outcomes()[1].corrupted, 1u);
}

TEST(FaultInjector, GpuThrottleWindowScalesKernelRate)
{
    sim::EventQueue eq;
    hw::GpuConfig config;
    config.tflops = 1.0;
    config.computeEfficiency = 1.0;
    config.kernelOverhead = 0;
    hw::GpuModel gpu(eq, config);

    const hw::GpuKernel kernel{1e9, 0.0}; // 1 ms at full rate
    const Tick full = gpu.kernelDuration(kernel);
    gpu.setThrottleFactor(0.5);
    const Tick throttled = gpu.kernelDuration(kernel);
    EXPECT_EQ(throttled, 2 * full);
    gpu.setThrottleFactor(1.0);

    // Injector-scheduled window: factor applies only inside it.
    Rig rig;
    fault::FaultPlan plan;
    plan.gpuThrottle(10 * oneMs, 20 * oneMs, 0.25);
    fault::FaultInjector injector(rig.graph, plan);
    injector.arm();
    hw::GpuModel &dev = rig.machine.gpu();
    rig.eq.runUntil(5 * oneMs);
    EXPECT_DOUBLE_EQ(dev.throttleFactor(), 1.0);
    rig.eq.runUntil(15 * oneMs);
    EXPECT_DOUBLE_EQ(dev.throttleFactor(), 0.25);
    rig.eq.runUntil(40 * oneMs);
    EXPECT_DOUBLE_EQ(dev.throttleFactor(), 1.0);
}

TEST(FaultInjector, InvalidPlansThrowBeforeSimulation)
{
    Rig rig;
    {
        fault::FaultPlan plan;
        plan.nodeCrash("no_such_node", oneSec, oneSec);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        fault::FaultPlan plan;
        plan.frameLoss("", 0, oneSec, 0.5);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        fault::FaultPlan plan;
        plan.frameLoss("/t", 0, oneSec, 1.5);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        fault::FaultPlan plan;
        plan.gpuThrottle(0, oneSec, 0.0);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
}

TEST(FaultInjector, AmbiguousCompositionsRejected)
{
    Rig rig;
    struct CrashNode : ros::Node
    {
        using ros::Node::Node;
    };
    CrashNode node(rig.graph, "victim");
    node.subscribe<IntMsg>(
        "/t", 10,
        [](const ros::Stamped<IntMsg> &,
           std::function<void()> done) { done(); });

    {
        // Byte-identical specs would share one Rng stream.
        fault::FaultPlan plan;
        plan.frameLoss("/t", oneSec, oneSec, 0.5);
        plan.frameLoss("/t", oneSec, oneSec, 0.5);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        // Overlapping throttle windows: the first window's end
        // would reset the factor mid-way through the second.
        fault::FaultPlan plan;
        plan.gpuThrottle(oneSec, 2 * oneSec, 0.5);
        plan.gpuThrottle(2 * oneSec, 2 * oneSec, 0.25);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        // Crash-while-down has no defined respawn order.
        fault::FaultPlan plan;
        plan.nodeCrash("victim", oneSec, 2 * oneSec);
        plan.nodeCrash("victim", 2 * oneSec, 2 * oneSec);
        EXPECT_THROW(fault::FaultInjector(rig.graph, plan),
                     std::invalid_argument);
    }
    {
        // Same windows on *different* nodes compose fine — the
        // rejection is specific, not a blanket same-kind ban.
        CrashNode other(rig.graph, "other");
        other.subscribe<IntMsg>(
            "/t", 10,
            [](const ros::Stamped<IntMsg> &,
               std::function<void()> done) { done(); });
        fault::FaultPlan plan;
        plan.nodeCrash("victim", oneSec, 2 * oneSec);
        plan.nodeCrash("other", 2 * oneSec, 2 * oneSec);
        EXPECT_NO_THROW(fault::FaultInjector(rig.graph, plan));
    }
}

TEST(RecoveryProbe, MeasuresOnsetToFirstPostWindowPublication)
{
    Rig rig;
    // The probe reads the recorder's publish log, so the graph
    // needs a recorder attached (the publish log is always on).
    trace::Recorder recorder;
    rig.graph.setTraceRecorder(&recorder);
    auto pub = rig.graph.advertise<IntMsg>("/t");
    fault::FaultPlan plan;
    plan.frameLoss("/t", 10 * oneMs, 20 * oneMs, 0.0);
    prof::RecoveryProbe probe(recorder, plan);
    for (const Tick at : {15 * oneMs, 40 * oneMs, 50 * oneMs})
        rig.eq.schedule(at, [&pub, &rig, at] {
            ros::Header h;
            h.stamp = rig.eq.now();
            pub.publish(h, IntMsg{}, 64);
        });
    rig.eq.runUntil();

    std::vector<fault::FaultOutcome> outcomes(1);
    probe.fill(outcomes);
    EXPECT_EQ(outcomes[0].publishedDuringWindow, 1u);
    // Onset 10 ms, first publication at/after the 30 ms window end
    // is at 40 ms -> 30 ms to recover.
    EXPECT_DOUBLE_EQ(outcomes[0].recoveryMs, 30.0);
}

TEST(StalenessMonitor, EdgeTriggersOnFreshToStale)
{
    // The probe reads the recorder's publish log; the recorder
    // outlives the graph's topics.
    trace::Recorder recorder;
    Rig rig;
    rig.graph.setTraceRecorder(&recorder);
    // One watched topic exists; the other watched names are absent
    // from the graph and skipped.
    auto pub = rig.graph.advertise<IntMsg>(perception::topics::ndtPose);
    prof::StalenessMonitor probe(rig.graph, recorder);
    probe.start();
    // Two bursts, each publishing every 100 ms for 1 s and then
    // going silent for 1 s: the 500 ms threshold is crossed once per
    // silence, and the fresh samples of the second burst re-arm it.
    for (const Tick burst : {Tick{0}, 2 * oneSec})
        for (int i = 0; i < 10; ++i)
            rig.eq.schedule(burst + static_cast<Tick>(i) * 100 * oneMs,
                            [&pub, &rig] {
                                ros::Header h;
                                h.stamp = rig.eq.now();
                                pub.publish(h, IntMsg{}, 64);
                            });
    rig.eq.runUntil(4 * oneSec);
    ASSERT_EQ(probe.rows().size(), 1u);
    EXPECT_EQ(probe.rows()[0].topic, perception::topics::ndtPose);
    EXPECT_TRUE(probe.rows()[0].stale);
    EXPECT_EQ(probe.rows()[0].staleEvents, 2u);
    EXPECT_EQ(probe.staleEvents(), 2u);
}

// ---- whole-stack degradation -----------------------------------

TEST(Degradation, CameraBlackoutFallsBackToLidarOnlyFusion)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    prof::RunConfig cfg;
    cfg.stack.degraded = true;
    cfg.faults =
        fault::FaultPlan().cameraBlackout(2 * oneSec, 2 * oneSec);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const auto outcomes = run.faultOutcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_GT(outcomes[0].suppressed, 0u);
    // The degradation contract: fused objects keep flowing during
    // the vision outage (LiDAR-only), and recovery is measurable.
    EXPECT_GT(outcomes[0].publishedDuringWindow, 0u);
    EXPECT_GE(outcomes[0].recoveryMs, 0.0);

    const auto resilience = run.resilienceCounters();
    EXPECT_GT(counterOf(resilience, "fusion_lidar_only"), 0.0);
    EXPECT_GT(counterOf(resilience, "watchdog_stale_events"), 0.0);

    // The staleness probe sampled the watched topics.
    bool sampled = false;
    for (const prof::StalenessRow &row : run.staleness().rows())
        if (row.ageMs.count() > 0)
            sampled = true;
    EXPECT_TRUE(sampled);
}

TEST(Degradation, StaleEventsReportedOnlyWhenDegraded)
{
    // The staleness probe counts stale transitions in every run; the
    // resilience counter reports them only when degradation is on.
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    auto runWith = [&drive](bool degraded) {
        prof::RunConfig cfg;
        cfg.stack.degraded = degraded;
        cfg.faults =
            fault::FaultPlan().cameraBlackout(2 * oneSec, 2 * oneSec);
        auto run = std::make_unique<prof::CharacterizationRun>(drive,
                                                               cfg);
        run->execute();
        return run;
    };
    auto rowSum = [](const prof::CharacterizationRun &run) {
        std::uint64_t sum = 0;
        for (const prof::StalenessRow &row : run.staleness().rows())
            sum += row.staleEvents;
        return sum;
    };

    const auto plain = runWith(false);
    EXPECT_GT(rowSum(*plain), 0u);
    EXPECT_EQ(plain->staleness().staleEvents(), rowSum(*plain));
    EXPECT_EQ(counterOf(plain->resilienceCounters(),
                        "watchdog_stale_events"),
              0.0);

    const auto degraded = runWith(true);
    EXPECT_GT(rowSum(*degraded), 0u);
    EXPECT_EQ(counterOf(degraded->resilienceCounters(),
                        "watchdog_stale_events"),
              static_cast<double>(rowSum(*degraded)));
}

TEST(Degradation, CompoundBlackoutAndThrottleComposeGracefully)
{
    // Camera blackout + GPU throttle over the same window: the
    // fusion falls back to LiDAR-only while the GPU runs slow, both
    // faults recover, and the resilience counters reflect the
    // composition rather than one fault masking the other.
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    prof::RunConfig cfg;
    cfg.stack.degraded = true;
    cfg.faults = fault::FaultPlan()
                     .cameraBlackout(2 * oneSec, 2 * oneSec)
                     .gpuThrottle(2 * oneSec, 2 * oneSec, 0.5);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const auto outcomes = run.faultOutcomes();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const fault::FaultOutcome &out : outcomes)
        EXPECT_GE(out.recoveryMs, 0.0) << out.label;

    const auto resilience = run.resilienceCounters();
    EXPECT_GT(counterOf(resilience, "fusion_lidar_only"), 0.0);
    EXPECT_GT(counterOf(resilience, "watchdog_stale_events"), 0.0);
}

TEST(Degradation, PlanOrderDoesNotChangeOutcomes)
{
    // Fault streams are salted by spec *content*, not plan index:
    // permuting the plan must leave every probabilistic draw — and
    // therefore outcomes and resilience counters — byte-identical.
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    fault::FaultPlan forward;
    forward.seed = 7;
    forward.lidarBlackout(2 * oneSec, 800 * oneMs)
        .frameLoss(world::topics::pointsRaw, 2500 * oneMs,
                   2 * oneSec, 0.5)
        .gpuThrottle(3 * oneSec, 2 * oneSec, 0.5);

    fault::FaultPlan reversed;
    reversed.seed = 7;
    for (auto it = forward.faults.rbegin();
         it != forward.faults.rend(); ++it)
        reversed.faults.push_back(*it);

    auto outcomesOf = [&](const fault::FaultPlan &plan) {
        prof::RunConfig cfg;
        cfg.stack.degraded = true;
        cfg.faults = plan;
        prof::CharacterizationRun run(drive, cfg);
        run.execute();
        auto outs = run.faultOutcomes();
        std::sort(outs.begin(), outs.end(),
                  [](const fault::FaultOutcome &a,
                     const fault::FaultOutcome &b) {
                      return a.label < b.label;
                  });
        return std::make_pair(outs, run.resilienceCounters());
    };

    const auto [fwd, fwdCounters] = outcomesOf(forward);
    const auto [rev, revCounters] = outcomesOf(reversed);
    EXPECT_EQ(fwdCounters, revCounters);
    ASSERT_EQ(fwd.size(), rev.size());
    for (std::size_t i = 0; i < fwd.size(); ++i) {
        EXPECT_EQ(fwd[i].label, rev[i].label);
        EXPECT_EQ(fwd[i].suppressed, rev[i].suppressed);
        EXPECT_EQ(fwd[i].publishedDuringWindow,
                  rev[i].publishedDuringWindow);
        EXPECT_EQ(fwd[i].recoveryMs, rev[i].recoveryMs);
    }
}

TEST(Degradation, LidarBlackoutCoastsTrackerAndReseedsNdt)
{
    world::ScenarioConfig scenario;
    auto drive = prof::makeDrive(scenario, 6 * oneSec);

    prof::RunConfig cfg;
    cfg.stack.degraded = true;
    cfg.faults = fault::FaultPlan().lidarBlackout(
        2 * oneSec, 1500 * oneMs);
    prof::CharacterizationRun run(drive, cfg);
    run.execute();

    const auto resilience = run.resilienceCounters();
    // No LiDAR frames -> no fused detections -> the tracker coasts
    // its confirmed tracks through the gap.
    EXPECT_GT(counterOf(resilience, "tracker_coasts"), 0.0);
    // First scan after the gap reseeds the NDT guess from GNSS.
    EXPECT_GE(counterOf(resilience, "ndt_reseeds"), 1.0);
}

} // namespace

