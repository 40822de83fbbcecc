/**
 * @file
 * Unit tests for the world substrate: scenario determinism and
 * geometry, LiDAR raycasting, camera visibility, GNSS/IMU, map
 * building, drive recording.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "world/map_builder.hh"
#include "world/recorder.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace {

using namespace av;
using namespace av::world;

TEST(Scenario, RouteIsClosedLoop)
{
    const Scenario scenario;
    const double len = scenario.routeLength();
    EXPECT_GT(len, 100.0);
    // Pose at s and s + len coincide.
    const geom::Pose2 a = scenario.poseOnRoute(37.0);
    const geom::Pose2 b = scenario.poseOnRoute(37.0 + len);
    EXPECT_NEAR(a.p.x, b.p.x, 1e-9);
    EXPECT_NEAR(a.p.y, b.p.y, 1e-9);
}

TEST(Scenario, EgoMovesAtConfiguredSpeed)
{
    const Scenario scenario;
    // Measure on a straight stretch (the rounded corners make the
    // chord shorter than the arc length).
    const geom::Pose2 p0 = scenario.egoPoseAt(5 * sim::oneSec);
    const geom::Pose2 p1 = scenario.egoPoseAt(6 * sim::oneSec);
    const double moved = (p1.p - p0.p).norm();
    EXPECT_NEAR(moved, scenario.config().egoSpeed, 0.1);
}

TEST(Scenario, DeterministicAcrossInstances)
{
    ScenarioConfig cfg;
    cfg.seed = 77;
    const Scenario a(cfg), b(cfg);
    const auto sa = a.actorsAt(12 * sim::oneSec);
    const auto sb = b.actorsAt(12 * sim::oneSec);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_DOUBLE_EQ(sa[i].box.pose.p.x, sb[i].box.pose.p.x);
        EXPECT_DOUBLE_EQ(sa[i].box.pose.p.y, sb[i].box.pose.p.y);
    }
}

TEST(Scenario, ActorsHaveDistinctIdsAndMove)
{
    const Scenario scenario;
    const auto t0 = scenario.actorsAt(0);
    const auto t1 = scenario.actorsAt(5 * sim::oneSec);
    std::set<std::uint32_t> ids;
    for (const auto &a : t0)
        ids.insert(a.id);
    EXPECT_EQ(ids.size(), t0.size());
    // At least the moving vehicles changed position.
    int moved = 0;
    for (std::size_t i = 0; i < t0.size(); ++i)
        moved += (t0[i].box.pose.p - t1[i].box.pose.p).norm() > 1.0;
    EXPECT_GT(moved, 10);
}

TEST(Lidar, ScanDeterministicAndPlausible)
{
    const Scenario scenario;
    const LidarModel lidar;
    const auto a = lidar.scan(scenario, 3 * sim::oneSec);
    const auto b = lidar.scan(scenario, 3 * sim::oneSec);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 2000u);
    for (std::size_t i = 0; i < a.size(); i += 97)
        EXPECT_FLOAT_EQ(a[i].x, b[i].x);
    // Ranges bounded by the sensor's max range.
    for (const auto &p : a.points) {
        const double r = std::hypot(p.x, p.y);
        EXPECT_LE(r, lidar.config().maxRange + 1.0);
        EXPECT_GE(p.z, -0.5);
    }
}

TEST(Lidar, GroundDominatesOpenAreas)
{
    // Scenario with no actors/buildings: every return is ground.
    ScenarioConfig cfg;
    cfg.nVehicles = cfg.nParked = cfg.nPedestrians = 0;
    cfg.nBuildings = 0;
    const Scenario scenario(cfg);
    const LidarModel lidar;
    const auto scan = lidar.scan(scenario, 0);
    EXPECT_GT(scan.size(), 1000u);
    for (const auto &p : scan.points)
        EXPECT_LT(p.z, 0.3f);
}

TEST(Lidar, ObstaclesProduceElevatedReturns)
{
    const Scenario scenario;
    const LidarModel lidar;
    const auto scan = lidar.scan(scenario, 0);
    int elevated = 0;
    for (const auto &p : scan.points)
        elevated += p.z > 0.5f;
    EXPECT_GT(elevated, 100); // buildings/cars in view
}

TEST(Camera, SeesActorsInFrontOnly)
{
    const Scenario scenario;
    const CameraModel camera;
    const auto frame = camera.capture(scenario, 10 * sim::oneSec);
    const geom::Pose2 ego = scenario.egoPoseAt(10 * sim::oneSec);
    const double half_fov =
        camera.config().horizontalFovDeg * M_PI / 360.0;
    for (const auto &vo : frame.truth) {
        EXPECT_LE(std::fabs(vo.bearing), half_fov + 1e-9);
        EXPECT_LE(vo.range, camera.config().maxRange + 1e-9);
        EXPECT_GT(vo.imageHeightPx, 0.0);
        // Bearing consistent with geometry.
        const geom::Vec2 rel = ego.toLocal(vo.worldPos);
        EXPECT_NEAR(std::atan2(rel.y, rel.x), vo.bearing, 1e-6);
    }
}

TEST(Gnss, NoiseAroundTruth)
{
    const Scenario scenario;
    const GnssModel gnss(1.5, 3);
    double err_acc = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        const sim::Tick t = static_cast<sim::Tick>(i) * sim::oneSec;
        const auto fix = gnss.fix(scenario, t);
        const geom::Pose2 truth = scenario.egoPoseAt(t);
        const double err =
            (geom::Vec2{fix.position.x, fix.position.y} - truth.p)
                .norm();
        err_acc += err;
        EXPECT_LT(err, 8.0); // few-sigma bound
    }
    const double mean_err = err_acc / n;
    EXPECT_GT(mean_err, 0.5); // it is noisy (meter level)
    EXPECT_LT(mean_err, 3.5);
}

TEST(Imu, YawRateReflectsCorners)
{
    const Scenario scenario;
    const ImuModel imu(5);
    // Sample along a straight stretch: yaw rate ~ 0.
    const auto straight = imu.sample(scenario, 2 * sim::oneSec);
    EXPECT_NEAR(straight.yawRate, 0.0, 0.1);
    EXPECT_NEAR(straight.speed, scenario.config().egoSpeed, 0.5);
}

TEST(MapBuilder, CoversTheRoute)
{
    const Scenario scenario;
    const LidarModel lidar;
    MapBuilderConfig cfg;
    cfg.scanInterval = 2 * sim::oneSec; // coarse, for speed
    const MapBuilder builder(cfg);
    const double loop_s =
        scenario.routeLength() / scenario.config().egoSpeed;
    const auto map =
        builder.build(scenario, lidar, sim::secondsToTicks(loop_s));
    EXPECT_GT(map.size(), 30000u);
    // The map must span the whole block.
    float min_x = 1e9, max_x = -1e9;
    for (const auto &p : map.points) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
    }
    EXPECT_GT(max_x - min_x, scenario.config().blockLength * 0.8);
}

TEST(Recorder, ChannelsAndRates)
{
    const Scenario scenario;
    const LidarModel lidar;
    const CameraModel camera;
    const GnssModel gnss;
    const ImuModel imu;
    ros::Bag bag;
    RecorderConfig cfg;
    recordDrive(scenario, lidar, camera, gnss, imu,
                10 * sim::oneSec, cfg, bag);
    const auto &points =
        bag.channel<pc::PointCloud>(topics::pointsRaw);
    const auto &images = bag.channel<CameraFrame>(topics::imageRaw);
    EXPECT_EQ(points.count(), 101u); // 10 Hz inclusive of t=0
    // ~15 Hz camera with phase offset.
    EXPECT_NEAR(static_cast<double>(images.count()), 151.0, 2.0);
    EXPECT_EQ(bag.channel<GnssFix>(topics::gnss).count(), 11u);
    EXPECT_GE(points.messages().back().header.stamp,
              10 * sim::oneSec - 100 * sim::oneMs);

    // Origin stamps set per sensor type.
    EXPECT_EQ(points.messages()[5].header.origins.lidar,
              points.messages()[5].header.stamp);
    EXPECT_EQ(points.messages()[5].header.origins.camera, 0u);
    EXPECT_EQ(images.messages()[5].header.origins.camera,
              images.messages()[5].header.stamp);
}

/** Property sweep: scans from different times differ (world moves). */
class LidarTimeTest : public ::testing::TestWithParam<int>
{};

TEST_P(LidarTimeTest, ScansEvolveOverTime)
{
    const Scenario scenario;
    const LidarModel lidar;
    const sim::Tick t =
        static_cast<sim::Tick>(GetParam()) * sim::oneSec;
    const auto a = lidar.scan(scenario, t);
    const auto b = lidar.scan(scenario, t + 2 * sim::oneSec);
    EXPECT_GT(a.size(), 1000u);
    EXPECT_GT(b.size(), 1000u);
    EXPECT_NE(a.size(), b.size()); // virtually impossible otherwise
}

INSTANTIATE_TEST_SUITE_P(Times, LidarTimeTest,
                         ::testing::Values(0, 5, 20, 60));

} // namespace
