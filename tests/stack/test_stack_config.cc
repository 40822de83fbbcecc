/**
 * @file
 * Tests of the stack wiring and configuration layer: option flags
 * build the right node sets, lookup works, calibration defaults are
 * sane, detector parameter presets are ordered as the paper
 * requires.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "stack/autoware_stack.hh"

namespace {

using namespace av;
using namespace av::stack;

struct Rig
{
    sim::EventQueue eq;
    hw::MachineConfig mcfg = defaultMachine();
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<ros::RosGraph> graph;
    pc::PointCloud map;

    Rig()
    {
        machine = std::make_unique<hw::Machine>(eq, mcfg);
        graph = std::make_unique<ros::RosGraph>(*machine);
        // A tiny but valid map.
        util::Rng rng(1);
        for (int i = 0; i < 2000; ++i)
            map.push_back(pc::Point::fromVec(
                {rng.uniform(-20, 20), rng.uniform(-20, 20),
                 rng.uniform(0, 2)}));
    }
};

TEST(StackConfig, FullStackHasAllNodes)
{
    Rig rig;
    AutowareStack stack(*rig.graph, rig.map);
    EXPECT_EQ(stack.nodes().size(), 10u);
    for (const char *name :
         {"voxel_grid_filter", "ndt_matching", "ray_ground_filter",
          "euclidean_cluster", "vision_detection",
          "range_vision_fusion", "imm_ukf_pda_tracker",
          "ukf_track_relay", "naive_motion_prediction",
          "costmap_generator"}) {
        EXPECT_NE(stack.find(name), nullptr) << name;
    }
    EXPECT_EQ(stack.find("nonexistent"), nullptr);
}

TEST(StackConfig, NodeJitterSeedsMatchStdHash)
{
    // Each node seeds its cost-jitter Rng with util::stringHash of its
    // name. Oracle: on this toolchain it must equal the
    // std::hash<std::string> the seeds came from before, or every
    // simulated latency (and every golden) would move.
    Rig rig;
    const AutowareStack stack(*rig.graph, rig.map);
    ASSERT_EQ(stack.nodes().size(), 10u);
    for (const perception::PerceptionNode *node : stack.nodes()) {
        const std::string &name = node->name();
        EXPECT_EQ(util::stringHash(name),
                  static_cast<std::uint64_t>(
                      std::hash<std::string>{}(name)))
            << name;
    }
}

TEST(StackConfig, OptionFlagsPruneNodes)
{
    Rig rig;
    StackOptions options;
    options.enableVision = false;
    options.enableTracking = false;
    AutowareStack stack(*rig.graph, rig.map, options);
    // localization (2) + lidar detection (2) + costmap (1).
    EXPECT_EQ(stack.nodes().size(), 5u);
    EXPECT_EQ(stack.vision(), nullptr);
    EXPECT_EQ(stack.trackerNode(), nullptr);
    EXPECT_NE(stack.ndt(), nullptr);
    EXPECT_NE(stack.costmap(), nullptr);

    // LiDAR detection alone: ground filter + clustering, and the
    // clustering node still turns one obstacle cloud into one object.
    Rig lidar_rig;
    StackOptions lidar_only;
    lidar_only.enableVision = false;
    lidar_only.enableTracking = false;
    lidar_only.enableCostmap = false;
    lidar_only.enableLocalization = false;
    AutowareStack lidar_stack(*lidar_rig.graph, lidar_rig.map,
                              lidar_only);
    EXPECT_EQ(lidar_stack.nodes().size(), 2u);

    // Feed one obstacle cloud through /points_no_ground.
    pc::PointCloud cloud;
    util::Rng rng(3);
    for (int i = 0; i < 300; ++i)
        cloud.push_back(pc::Point::fromVec(
            {5.0 + rng.uniform(-0.5, 0.5),
             rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5)}));
    int outputs = 0;
    lidar_rig.graph->topic<perception::ObjectList>(
                     perception::topics::lidarObjects)
        .addTap([&](const ros::Stamped<perception::ObjectList> &m) {
            outputs += static_cast<int>(m.data.objects.size());
        });
    ros::Header h;
    h.stamp = 0;
    h.origins.lidar = 0;
    lidar_rig.graph->advertise<pc::PointCloud>(
                     perception::topics::pointsNoGround)
        .publish(h, cloud, cloud.byteSize());
    lidar_rig.eq.runUntil(sim::oneSec);
    EXPECT_EQ(outputs, 1);
}

TEST(StackConfig, DetectorSelectionReachesVisionNode)
{
    Rig rig;
    StackOptions options;
    options.detector = perception::DetectorKind::Ssd300;
    AutowareStack stack(*rig.graph, rig.map, options);
    ASSERT_NE(stack.vision(), nullptr);
    EXPECT_EQ(stack.vision()->kind(),
              perception::DetectorKind::Ssd300);
    EXPECT_EQ(stack.vision()->network().name, "SSD300");
}

TEST(StackConfig, DefaultMachineMatchesDesignDoc)
{
    const hw::MachineConfig cfg = defaultMachine();
    EXPECT_EQ(cfg.cpu.cores, 4u);
    EXPECT_NEAR(cfg.cpu.freqGhz, 3.7, 1e-9);
    EXPECT_NEAR(cfg.gpu.tflops, 11.0, 1e-9);
    EXPECT_GT(cfg.power.gpuIdleW, 0.0);
}

TEST(StackConfig, CalibrationScalesArePositive)
{
    const NodeCalibration cal = defaultCalibration();
    for (const auto *config :
         {&cal.voxelGridFilter, &cal.ndtMatching,
          &cal.rayGroundFilter, &cal.euclideanCluster,
          &cal.visionDetector, &cal.rangeVisionFusion,
          &cal.immUkfPda, &cal.trackRelay,
          &cal.naiveMotionPredict, &cal.costmapGenerator}) {
        EXPECT_GT(config->workScale, 0.0);
        EXPECT_GE(config->tracePeriod, 1u);
    }
}

TEST(StackConfig, DetectorGpuPresetsOrdered)
{
    // The cost orderings the paper's tables rest on: SSD512's
    // framework sustains the highest efficiency, darknet the lowest;
    // SSD300's small kernels run at the lowest occupancy weight.
    const auto ssd512 =
        gpuParamsFor(perception::DetectorKind::Ssd512);
    const auto ssd300 =
        gpuParamsFor(perception::DetectorKind::Ssd300);
    const auto yolo =
        gpuParamsFor(perception::DetectorKind::Yolov3);
    EXPECT_GT(ssd512.efficiency, yolo.efficiency);
    EXPECT_LT(ssd300.powerWeight, ssd512.powerWeight);
    EXPECT_LT(ssd300.powerWeight, yolo.powerWeight);
}

} // namespace
