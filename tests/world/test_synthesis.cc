/**
 * @file
 * World synthesis must produce the same bits however it is computed.
 *
 *  1. Oracle: LidarModel::scan culls boxes by azimuth bucket; the
 *     brute-force raycast below (every ray against every candidate)
 *     is the reference it must equal exactly, on every tick of a
 *     drive and on layouts built to break the culling: the ego inside
 *     a box's AABB footprint, a box across the +-pi seam behind the
 *     ego, boxes at the edge of the reach disc, an actor touching the
 *     ego, and random poses with unnormalized yaws.
 *  2. recordDrive and MapBuilder::build build scans in parallel; they
 *     must equal the serial per-tick loops.
 *  3. Golden: an FNV-1a hash over a 4 s drive's map, /points_raw and
 *     /image_raw truth, pinned in tests/world/golden_synthesis.txt.
 *     Regenerate after an intentional change with:
 *       AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *           --gtest_filter='SynthesisGolden.*'
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/characterization.hh"
#include "pointcloud/voxel_grid.hh"
#include "util/random.hh"
#include "world/map_builder.hh"
#include "world/recorder.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace {

using namespace av;
using namespace av::world;

constexpr std::uint64_t kLidarSeed = 7; ///< LidarModel's default

/** The raycast before culling: every ray tests every candidate. */
pc::PointCloud
referenceScan(const LidarConfig &config, std::uint64_t seed,
              const Scenario &scenario, sim::Tick t,
              const geom::Pose2 &ego)
{
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(t) *
                          0x9e3779b97f4a7c15ull));
    const geom::Vec3 origin{ego.p.x, ego.p.y, config.mountHeight};
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const double reach = config.maxRange + 5.0;
    std::vector<const geom::OrientedBox *> candidates;
    for (const StaticObstacle &ob : scenario.obstacles())
        if ((ob.box.pose.p - ego.p).norm() <
            reach + std::max(ob.box.length, ob.box.width))
            candidates.push_back(&ob.box);
    for (const ActorState &actor : actors)
        if ((actor.box.pose.p - ego.p).norm() < reach + 6.0)
            candidates.push_back(&actor.box);

    pc::PointCloud cloud;
    cloud.stampNs = t;
    const double fov = config.verticalFovDeg * M_PI / 180.0;
    for (std::uint32_t az = 0; az < config.azimuthSteps; ++az) {
        const double world_yaw =
            ego.yaw + 2.0 * M_PI * az / config.azimuthSteps;
        const double cy = std::cos(world_yaw);
        const double sy = std::sin(world_yaw);
        for (std::uint32_t beam = 0; beam < config.beams; ++beam) {
            const double elev =
                -fov / 2.0 +
                fov * beam /
                    std::max<std::uint32_t>(config.beams - 1, 1);
            const double ce = std::cos(elev);
            const geom::Vec3 dir{cy * ce, sy * ce, std::sin(elev)};
            double best_t = config.maxRange;
            float intensity = 0.0f;
            bool hit = false;
            if (dir.z < -1e-6) {
                const double tg = -origin.z / dir.z;
                if (tg < best_t) {
                    best_t = tg;
                    intensity = 0.25f;
                    hit = true;
                }
            }
            for (const geom::OrientedBox *box : candidates) {
                double tb = 0.0;
                if (!geom::rayAabb(origin, dir, box->aabb(), tb) ||
                    tb >= best_t)
                    continue;
                if (geom::rayOrientedBox(origin, dir, *box, tb) &&
                    tb < best_t && tb > config.minRange) {
                    best_t = tb;
                    intensity = 0.6f;
                    hit = true;
                }
            }
            if (!hit || best_t < config.minRange)
                continue;
            if (rng.bernoulli(config.dropProb))
                continue;
            const double d =
                best_t + rng.gaussian(0.0, config.rangeNoise);
            const geom::Vec2 flat =
                geom::Vec2{dir.x, dir.y}.rotated(-ego.yaw);
            cloud.push_back(pc::Point::fromVec(
                {flat.x * d, flat.y * d, config.mountHeight + dir.z * d},
                intensity, static_cast<std::uint16_t>(beam)));
        }
    }
    return cloud;
}

/** Bit-exact cloud comparison; reports the first differing point. */
::testing::AssertionResult
sameCloud(const pc::PointCloud &a, const pc::PointCloud &b)
{
    if (a.stampNs != b.stampNs)
        return ::testing::AssertionFailure()
               << "stamp " << a.stampNs << " vs " << b.stampNs;
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        const pc::Point &p = a[i];
        const pc::Point &q = b[i];
        if (std::bit_cast<std::uint32_t>(p.x) !=
                std::bit_cast<std::uint32_t>(q.x) ||
            std::bit_cast<std::uint32_t>(p.y) !=
                std::bit_cast<std::uint32_t>(q.y) ||
            std::bit_cast<std::uint32_t>(p.z) !=
                std::bit_cast<std::uint32_t>(q.z) ||
            std::bit_cast<std::uint32_t>(p.intensity) !=
                std::bit_cast<std::uint32_t>(q.intensity) ||
            p.ring != q.ring)
            return ::testing::AssertionFailure()
                   << "point " << i << " differs: (" << p.x << ", "
                   << p.y << ", " << p.z << ") vs (" << q.x << ", "
                   << q.y << ", " << q.z << ")";
    }
    return ::testing::AssertionSuccess();
}

/** Scan from @p ego with the model and with the oracle. */
::testing::AssertionResult
matchesOracle(const Scenario &scenario, sim::Tick t,
              const geom::Pose2 &ego)
{
    const LidarModel lidar(LidarConfig(), kLidarSeed);
    return sameCloud(
        lidar.scan(scenario, t, ego),
        referenceScan(lidar.config(), kLidarSeed, scenario, t, ego));
}

/** The scenario's first @p n obstacles. */
std::vector<geom::OrientedBox>
someObstacles(const Scenario &scenario, std::size_t n)
{
    std::vector<geom::OrientedBox> out;
    for (const StaticObstacle &ob : scenario.obstacles()) {
        if (out.size() == n)
            break;
        out.push_back(ob.box);
    }
    return out;
}

TEST(SynthesisOracle, ScanEqualsReferenceOnEveryDriveTick)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    const Scenario scenario(cfg);
    for (sim::Tick t = 0; t <= 6 * sim::oneSec; t += 100 * sim::oneMs)
        EXPECT_TRUE(matchesOracle(scenario, t, scenario.egoPoseAt(t)))
            << "tick " << t;
}

TEST(SynthesisOracle, ScanEqualsReferenceWithEgoInsideABoxFootprint)
{
    const Scenario scenario;
    for (const geom::OrientedBox &box : someObstacles(scenario, 4)) {
        const geom::Aabb aabb = box.aabb();
        // The center, a point just inside an AABB corner (outside
        // the oriented footprint when the box is rotated), and the
        // AABB's edge itself.
        const geom::Vec2 spots[] = {
            box.pose.p,
            {aabb.lo.x + 0.01, aabb.lo.y + 0.01},
            {aabb.hi.x, 0.5 * (aabb.lo.y + aabb.hi.y)},
        };
        for (const geom::Vec2 &spot : spots)
            for (double yaw : {0.0, 1.0, -2.5})
                EXPECT_TRUE(matchesOracle(scenario, 0, {spot, yaw}))
                    << "ego at (" << spot.x << ", " << spot.y << ")";
    }
}

TEST(SynthesisOracle, ScanEqualsReferenceAcrossTheAzimuthSeam)
{
    const Scenario scenario;
    const double step = 2.0 * M_PI / LidarConfig().azimuthSteps;
    for (const geom::OrientedBox &box : someObstacles(scenario, 3)) {
        // Stand 12 m from the box, facing away: the box sits at
        // relative azimuth pi, across the seam where bucket indices
        // wrap.
        const double away = 0.7;
        const geom::Vec2 ego_p =
            box.pose.p + geom::Vec2{std::cos(away), std::sin(away)} *
                             (12.0 + std::max(box.length, box.width));
        for (double nudge : {0.0, 0.5 * step, -0.5 * step, 1e-4,
                             -1e-4, 4.0 * M_PI, -6.0 * M_PI})
            EXPECT_TRUE(
                matchesOracle(scenario, 0, {ego_p, away + nudge}))
                << "yaw nudge " << nudge;
    }
}

TEST(SynthesisOracle, ScanEqualsReferenceAtTheReachDiscEdge)
{
    const Scenario scenario;
    const LidarConfig config;
    const double reach = config.maxRange + 5.0;
    for (const geom::OrientedBox &box : someObstacles(scenario, 3)) {
        const double half = 0.5 * box.length;
        const double radius = std::max(box.length, box.width);
        // Just inside the candidate prune, and with the near face at
        // the range limit.
        for (double dist : {reach + radius - 1e-3,
                            config.maxRange + half - 1e-3,
                            config.maxRange + half + 1e-3}) {
            const geom::Vec2 ego_p =
                box.pose.apply({dist, 0.0});
            EXPECT_TRUE(matchesOracle(scenario, 0,
                                      {ego_p, box.pose.yaw + M_PI}))
                << "distance " << dist;
        }
    }
}

TEST(SynthesisOracle, ScanEqualsReferenceWithAnActorTouchingTheEgo)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    const Scenario scenario(cfg);
    const sim::Tick t = 3 * sim::oneSec;
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    ASSERT_GE(actors.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const geom::OrientedBox &box = actors[i].box;
        geom::Vec2 corners[4];
        box.corners(corners);
        const geom::Aabb aabb = box.aabb();
        // Above the actor (its roof is below the sensor, so downward
        // rays hit it from inside its footprint), on its front face,
        // on a corner, and inside its AABB but off its footprint,
        // facing either way.
        const geom::Vec2 spots[] = {
            box.pose.p, box.pose.apply({0.5 * box.length, 0.0}),
            corners[0], {aabb.lo.x + 0.01, aabb.lo.y + 0.01}};
        for (const geom::Vec2 &spot : spots)
            for (double turn : {0.0, M_PI})
                EXPECT_TRUE(matchesOracle(scenario, t,
                                          {spot, box.pose.yaw + turn}))
                    << "actor " << actors[i].id;
    }
}

TEST(SynthesisOracle, ScanEqualsReferenceFromRandomPoses)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    const Scenario scenario(cfg);
    util::Rng rng(41);
    for (int i = 0; i < 24; ++i) {
        const sim::Tick t =
            static_cast<sim::Tick>(rng.uniform(0.0, 60.0) *
                                   static_cast<double>(sim::oneSec));
        const geom::Pose2 on_route =
            scenario.poseOnRoute(rng.uniform(0.0, scenario.routeLength()));
        const geom::Pose2 ego{
            on_route.p + geom::Vec2{rng.gaussian(0.0, 6.0),
                                    rng.gaussian(0.0, 6.0)},
            rng.uniform(-20.0, 20.0)};
        EXPECT_TRUE(matchesOracle(scenario, t, ego)) << "pose " << i;
    }
}

/** Channel messages must match field for field. */
void
expectSameBag(ros::Bag &ca, ros::Bag &cb)
{
    const auto &pa = ca.channel<pc::PointCloud>(topics::pointsRaw);
    const auto &pb = cb.channel<pc::PointCloud>(topics::pointsRaw);
    ASSERT_EQ(pa.count(), pb.count());
    for (std::size_t i = 0; i < pa.count(); ++i) {
        const auto &ma = pa.messages()[i];
        const auto &mb = pb.messages()[i];
        EXPECT_EQ(ma.header.stamp, mb.header.stamp);
        EXPECT_EQ(ma.header.origins.lidar, mb.header.origins.lidar);
        EXPECT_EQ(ma.bytes, mb.bytes);
        EXPECT_TRUE(sameCloud(ma.data, mb.data)) << "scan " << i;
    }
    const auto &ia = ca.channel<CameraFrame>(topics::imageRaw);
    const auto &ib = cb.channel<CameraFrame>(topics::imageRaw);
    ASSERT_EQ(ia.count(), ib.count());
    for (std::size_t i = 0; i < ia.count(); ++i) {
        const auto &fa = ia.messages()[i];
        const auto &fb = ib.messages()[i];
        EXPECT_EQ(fa.header.stamp, fb.header.stamp);
        ASSERT_EQ(fa.data.truth.size(), fb.data.truth.size());
        for (std::size_t k = 0; k < fa.data.truth.size(); ++k) {
            EXPECT_EQ(fa.data.truth[k].truthId, fb.data.truth[k].truthId);
            EXPECT_EQ(fa.data.truth[k].range, fb.data.truth[k].range);
        }
    }
    EXPECT_EQ(ca.channel<GnssFix>(topics::gnss).count(),
              cb.channel<GnssFix>(topics::gnss).count());
    EXPECT_EQ(ca.channel<ImuSample>(topics::imu).count(),
              cb.channel<ImuSample>(topics::imu).count());
    EXPECT_EQ(ca.totalMessages(), cb.totalMessages());
}

TEST(SynthesisParallel, RecordDriveEqualsSerialLoop)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    const Scenario scenario(cfg);
    const LidarModel lidar;
    const CameraModel camera;
    const GnssModel gnss;
    const ImuModel imu;
    const RecorderConfig rec;
    const sim::Tick duration = 3 * sim::oneSec;

    ros::Bag parallel;
    recordDrive(scenario, lidar, camera, gnss, imu, duration, rec,
                parallel);

    // The recorder as a plain serial per-tick loop.
    ros::Bag serial;
    auto &points = serial.channel<pc::PointCloud>(topics::pointsRaw);
    for (sim::Tick t = 0; t <= duration; t += rec.lidarPeriod) {
        ros::Stamped<pc::PointCloud> msg;
        msg.header.stamp = t;
        msg.header.origins.lidar = t;
        msg.data = lidar.scan(scenario, t);
        msg.bytes = msg.data.byteSize();
        points.add(std::move(msg));
    }
    auto &images = serial.channel<CameraFrame>(topics::imageRaw);
    for (sim::Tick t = rec.cameraPhase; t <= duration;
         t += rec.cameraPeriod) {
        ros::Stamped<CameraFrame> msg;
        msg.header.stamp = t;
        msg.data = camera.capture(scenario, t);
        images.add(std::move(msg));
    }
    for (sim::Tick t = 0; t <= duration; t += rec.gnssPeriod)
        serial.channel<GnssFix>(topics::gnss).add({});
    for (sim::Tick t = 0; t <= duration; t += rec.imuPeriod)
        serial.channel<ImuSample>(topics::imu).add({});

    expectSameBag(parallel, serial);
}

TEST(SynthesisParallel, MapBuilderEqualsSerialAccumulation)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    const Scenario scenario(cfg);
    const LidarModel lidar;
    MapBuilderConfig map_cfg;
    map_cfg.scanInterval = sim::oneSec;
    const sim::Tick duration = 12 * sim::oneSec;

    const pc::PointCloud built =
        MapBuilder(map_cfg).build(scenario, lidar, duration);

    // The mapping pass as a serial loop: one pose-noise draw and one
    // scan per keyframe, appended in tick order.
    util::Rng rng(map_cfg.seed);
    pc::PointCloud accumulated;
    for (sim::Tick t = 0; t <= duration; t += map_cfg.scanInterval) {
        const pc::PointCloud scan = lidar.scan(scenario, t);
        geom::Pose2 pose = scenario.egoPoseAt(t);
        pose.p.x += rng.gaussian(0.0, map_cfg.poseNoiseXy);
        pose.p.y += rng.gaussian(0.0, map_cfg.poseNoiseXy);
        pose.yaw += rng.gaussian(0.0, map_cfg.poseNoiseYaw);
        const geom::Pose lifted = pose.lift(0.0);
        for (const pc::Point &p : scan.points)
            accumulated.push_back(pc::Point::fromVec(
                lifted.apply(p.vec()), p.intensity, p.ring));
    }
    const pc::PointCloud serial =
        pc::voxelGridDownsample(accumulated, map_cfg.voxelLeaf);
    EXPECT_GT(built.size(), 10000u);
    EXPECT_TRUE(sameCloud(built, serial));
}

/** FNV-1a over the exact bytes of scalar fields. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        static_assert(std::is_arithmetic_v<T>);
        const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(const pc::PointCloud &cloud)
    {
        add(cloud.stampNs);
        add(cloud.size());
        for (const pc::Point &p : cloud.points) {
            add(p.x);
            add(p.y);
            add(p.z);
            add(p.intensity);
            add(p.ring);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(SynthesisGolden, FourSecondDriveHashMatchesGolden)
{
    ScenarioConfig cfg;
    cfg.seed = 2020;
    auto drive = prof::makeDrive(cfg, 4 * sim::oneSec);
    const auto &points =
        drive->bag.channel<pc::PointCloud>(topics::pointsRaw);
    const auto &images =
        drive->bag.channel<CameraFrame>(topics::imageRaw);

    Fnv map_hash, points_hash, truth_hash;
    map_hash.add(drive->map);
    for (const auto &msg : points.messages()) {
        points_hash.add(msg.header.stamp);
        points_hash.add(msg.header.origins.lidar);
        points_hash.add(msg.bytes);
        points_hash.add(msg.data);
    }
    for (const auto &msg : images.messages()) {
        truth_hash.add(msg.header.stamp);
        truth_hash.add(msg.data.truth.size());
        for (const VisibleObject &vo : msg.data.truth) {
            truth_hash.add(vo.truthId);
            truth_hash.add(static_cast<std::uint8_t>(vo.cls));
            truth_hash.add(vo.range);
            truth_hash.add(vo.bearing);
            truth_hash.add(vo.imageHeightPx);
            truth_hash.add(vo.worldPos.x);
            truth_hash.add(vo.worldPos.y);
            truth_hash.add(vo.worldVelocity.x);
            truth_hash.add(vo.worldVelocity.y);
            truth_hash.add(vo.occlusion);
        }
    }
    std::ostringstream actual;
    actual << std::hex << "map " << drive->map.size() << ' '
           << map_hash.value() << '\n'
           << "points_raw " << points.count() << ' '
           << points_hash.value() << '\n'
           << "image_raw " << images.count() << ' '
           << truth_hash.value() << '\n';

    const std::string path = std::string(AVSCOPE_SOURCE_DIR) +
                             "/tests/world/golden_synthesis.txt";
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual.str();
        GTEST_SKIP() << "golden hash regenerated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden_synthesis.txt fixture";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual.str())
        << "synthesized drive changed; if intentional, regenerate "
           "with AVSCOPE_WRITE_GOLDEN=1";
}

} // namespace
