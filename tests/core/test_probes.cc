/**
 * @file
 * Unit tests for the profiling probes against hand-driven machines
 * and message graphs (no full stack): utilization and power
 * sampling, the path view over synthetic lineages, drop
 * collection.
 */

#include <gtest/gtest.h>

#include "core/probes.hh"
#include "core/run_result.hh"

namespace {

using namespace av;
using av::sim::oneMs;
using av::sim::oneSec;

struct Rig
{
    sim::EventQueue eq;
    hw::MachineConfig mcfg;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<ros::RosGraph> graph;

    Rig()
    {
        mcfg.cpu.cores = 2;
        mcfg.cpu.freqGhz = 1.0;
        mcfg.cpu.memPenaltyCyclesPerByte = 0.0;
        machine = std::make_unique<hw::Machine>(eq, mcfg);
        graph = std::make_unique<ros::RosGraph>(*machine);
    }
};

TEST(UtilizationMonitor, MeasuresBusyShare)
{
    Rig rig;
    prof::MachineMonitor monitor(rig.eq, *rig.machine);
    monitor.start();
    // Owner "worker" busy 0.4 s of every second on one of 2 cores:
    // submit 10 x 40 ms tasks spread over 10 s.
    for (int i = 0; i < 10; ++i) {
        rig.eq.schedule(static_cast<sim::Tick>(i) * oneSec,
                        [&rig] {
                            rig.machine->cpu().submit(hw::CpuTask{
                                "worker", 40e6, 0.0, 0.0, [] {}});
                        });
    }
    rig.eq.runUntil(10 * oneSec + oneMs);
    monitor.stop();

    ASSERT_TRUE(monitor.rows().count("worker"));
    // 40 ms per 1 s window on a 2-core machine = 2% of the machine.
    EXPECT_NEAR(monitor.rows().at("worker").cpuShare.mean(), 0.02,
                0.004);
    EXPECT_NEAR(monitor.totalCpu().mean(), 0.02, 0.004);
}

TEST(UtilizationMonitor, GpuResidencyPerOwner)
{
    Rig rig;
    prof::MachineMonitor monitor(rig.eq, *rig.machine);
    monitor.start();
    for (int i = 0; i < 5; ++i) {
        rig.eq.schedule(static_cast<sim::Tick>(i) * oneSec, [&rig] {
            hw::GpuJob job;
            job.owner = "infer";
            // 11 TFLOPS default: 1.1e9 flops ~ 0.1 ms... make 55e9
            // for ~5 ms active.
            job.kernels = {hw::GpuKernel{55e9, 0.0}};
            job.onComplete = [] {};
            rig.machine->gpu().submit(std::move(job));
        });
    }
    rig.eq.runUntil(5 * oneSec + oneMs);
    monitor.stop();
    ASSERT_TRUE(monitor.rows().count("infer"));
    EXPECT_NEAR(monitor.rows().at("infer").gpuShare.mean(), 0.005,
                0.002);
}

TEST(PowerMonitor, IdleMachineAtIdlePower)
{
    Rig rig;
    prof::MachineMonitor monitor(rig.eq, *rig.machine);
    monitor.start();
    rig.eq.runUntil(5 * oneSec);
    monitor.stop();
    EXPECT_NEAR(monitor.cpuWatts().mean(),
                rig.mcfg.power.cpuIdleW, 0.01);
    EXPECT_NEAR(monitor.gpuWatts().mean(),
                rig.mcfg.power.gpuIdleW, 0.01);
    EXPECT_NEAR(monitor.cpuEnergyJ(),
                rig.mcfg.power.cpuIdleW * 5.0, 0.5);
}

TEST(PowerMonitor, BusyCoreRaisesPower)
{
    Rig rig;
    prof::MachineMonitor monitor(rig.eq, *rig.machine);
    monitor.start();
    // One core fully busy for 4 s.
    rig.machine->cpu().submit(
        hw::CpuTask{"burn", 4e9, 0.0, 0.0, [] {}});
    rig.eq.runUntil(4 * oneSec + oneMs);
    monitor.stop();
    EXPECT_NEAR(monitor.cpuWatts().mean(),
                rig.mcfg.power.cpuIdleW +
                    rig.mcfg.power.cpuPerCoreW,
                0.3);
}

TEST(PathView, RoutesOriginsToTheRightSeries)
{
    Rig rig;
    trace::Recorder recorder;
    rig.graph->setTraceRecorder(&recorder);

    auto pose_pub = rig.graph->advertise<perception::PoseEstimate>(
        perception::topics::ndtPose);
    auto costmap_pub = rig.graph->advertise<perception::Costmap>(
        perception::topics::costmap);

    rig.eq.schedule(50 * oneMs, [&] {
        ros::Header h;
        h.stamp = rig.eq.now();
        h.origins.lidar = 10 * oneMs; // 40 ms old
        pose_pub.publish(h, perception::PoseEstimate{}, 64);
    });
    rig.eq.schedule(100 * oneMs, [&] {
        ros::Header h;
        h.stamp = rig.eq.now();
        h.origins.lidar = 20 * oneMs;  // 80 ms -> cluster path
        h.origins.camera = 40 * oneMs; // 60 ms -> vision path
        costmap_pub.publish(h, perception::Costmap{}, 64);
    });
    rig.eq.schedule(200 * oneMs, [&] {
        ros::Header h;
        h.stamp = rig.eq.now();
        h.origins.lidar = 170 * oneMs; // 30 ms -> points path
        costmap_pub.publish(h, perception::Costmap{}, 64);
    });
    rig.eq.schedule(250 * oneMs, [&] {
        ros::Header h;
        h.stamp = rig.eq.now();
        h.origins.lidar = 260 * oneMs; // published before its origin
        costmap_pub.publish(h, perception::Costmap{}, 64);
    });
    rig.eq.runUntil(300 * oneMs);

    prof::RunResult result;
    result.paths = prof::pathSeries(recorder);
    ASSERT_EQ(result.paths.size(), 4u);
    const auto series = [&result](prof::Path path) {
        const util::SampleSeries *s = result.findPathSeries(path);
        EXPECT_NE(s, nullptr) << prof::pathName(path);
        return s ? *s : util::SampleSeries();
    };

    EXPECT_EQ(series(prof::Path::Localization).count(), 1u);
    EXPECT_NEAR(series(prof::Path::Localization).running().mean(),
                40.0, 1e-9);
    EXPECT_EQ(series(prof::Path::CostmapClusterObj).count(), 1u);
    EXPECT_NEAR(
        series(prof::Path::CostmapClusterObj).running().mean(), 80.0,
        1e-9);
    EXPECT_EQ(series(prof::Path::CostmapVisionObj).count(), 1u);
    EXPECT_NEAR(series(prof::Path::CostmapVisionObj).running().mean(),
                60.0, 1e-9);
    // The 250 ms publication predates its origin: not counted.
    EXPECT_EQ(series(prof::Path::CostmapPoints).count(), 1u);
    EXPECT_NEAR(series(prof::Path::CostmapPoints).running().mean(),
                30.0, 1e-9);
    // The worst path is read off the snapshot's path rows.
    EXPECT_NEAR(result.worstCaseMean(), 80.0, 1e-9);
    EXPECT_NEAR(result.worstCaseMax(), 80.0, 1e-9);
}

TEST(DropCollection, ReportsPerSubscription)
{
    Rig rig;
    ros::Node slow(*rig.graph, "slow");
    struct M
    {
        int x;
    };
    slow.subscribe<M>("/data", 1,
                      [&rig](const ros::Stamped<M> &,
                             std::function<void()> done) {
                          rig.eq.scheduleAfter(oneSec, done);
                      });
    auto pub = rig.graph->advertise<M>("/data");
    for (int i = 0; i < 6; ++i)
        pub.publish(ros::Header{}, M{i}, 8);
    rig.eq.runUntil(10 * oneSec);

    const auto drops = prof::collectDrops(*rig.graph);
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].topic, "/data");
    EXPECT_EQ(drops[0].node, "slow");
    EXPECT_EQ(drops[0].delivered, 6u);
    EXPECT_EQ(drops[0].dropped, 4u);
    EXPECT_NEAR(drops[0].dropRate(), 4.0 / 6.0, 1e-9);
}

} // namespace
