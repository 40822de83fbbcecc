/**
 * @file
 * Unit tests for binary bag persistence: round trip fidelity,
 * format guards, replay equivalence of a loaded bag.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_dir.hh"
#include "world/bag_io.hh"
#include "world/recorder.hh"

namespace {

using namespace av;
using namespace av::world;

std::string
tempPath(const char *name)
{
    return test::freshTestDir(name) + "/" + name + ".avbg";
}

ros::Bag
recordShortDrive()
{
    ScenarioConfig cfg;
    cfg.seed = 31;
    const Scenario scenario(cfg);
    const LidarModel lidar;
    const CameraModel camera;
    const GnssModel gnss;
    const ImuModel imu;
    ros::Bag bag;
    recordDrive(scenario, lidar, camera, gnss, imu, 3 * sim::oneSec,
                RecorderConfig(), bag);
    return bag;
}

TEST(BagIo, RoundTripPreservesEverything)
{
    ros::Bag original = recordShortDrive();
    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(saveSensorBag(original, path));

    ros::Bag loaded;
    ASSERT_TRUE(loadSensorBag(loaded, path));
    EXPECT_EQ(loaded.totalMessages(), original.totalMessages());
    EXPECT_EQ(loaded.duration(), original.duration());

    // Point clouds byte-identical.
    const auto &a = original.channel<pc::PointCloud>(
                                 topics::pointsRaw)
                        .messages();
    const auto &b =
        loaded.channel<pc::PointCloud>(topics::pointsRaw)
            .messages();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
        EXPECT_EQ(a[m].header.stamp, b[m].header.stamp);
        EXPECT_EQ(a[m].header.origins.lidar,
                  b[m].header.origins.lidar);
        EXPECT_EQ(a[m].bytes, b[m].bytes);
        ASSERT_EQ(a[m].data.size(), b[m].data.size());
        for (std::size_t i = 0; i < a[m].data.size(); i += 37) {
            EXPECT_FLOAT_EQ(a[m].data[i].x, b[m].data[i].x);
            EXPECT_FLOAT_EQ(a[m].data[i].z, b[m].data[i].z);
            EXPECT_EQ(a[m].data[i].ring, b[m].data[i].ring);
        }
    }

    // Camera truth preserved.
    const auto &fa =
        original.channel<CameraFrame>(topics::imageRaw).messages();
    const auto &fb =
        loaded.channel<CameraFrame>(topics::imageRaw).messages();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t m = 0; m < fa.size(); ++m) {
        ASSERT_EQ(fa[m].data.truth.size(), fb[m].data.truth.size());
        for (std::size_t i = 0; i < fa[m].data.truth.size(); ++i) {
            EXPECT_EQ(fa[m].data.truth[i].truthId,
                      fb[m].data.truth[i].truthId);
            EXPECT_EQ(fa[m].data.truth[i].cls,
                      fb[m].data.truth[i].cls);
            EXPECT_DOUBLE_EQ(fa[m].data.truth[i].bearing,
                             fb[m].data.truth[i].bearing);
        }
    }
    std::remove(path.c_str());
}

TEST(BagIo, LoadedBagReplaysIdentically)
{
    ros::Bag original = recordShortDrive();
    const std::string path = tempPath("replay");
    ASSERT_TRUE(saveSensorBag(original, path));
    ros::Bag loaded;
    ASSERT_TRUE(loadSensorBag(loaded, path));

    const auto replay_stamps = [](const ros::Bag &bag) {
        sim::EventQueue eq;
        hw::MachineConfig mcfg;
        hw::Machine machine(eq, mcfg);
        ros::RosGraph graph(machine);
        std::vector<sim::Tick> stamps;
        graph.topic<pc::PointCloud>(topics::pointsRaw)
            .addTap([&](const ros::Stamped<pc::PointCloud> &msg) {
                stamps.push_back(msg.header.stamp);
            });
        bag.replay(graph);
        eq.runUntil();
        return stamps;
    };
    EXPECT_EQ(replay_stamps(original), replay_stamps(loaded));
    std::remove(path.c_str());
}

TEST(BagIo, RejectsGarbageFile)
{
    const std::string path = tempPath("garbage");
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a bag file at all";
    }
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, path));
    EXPECT_EQ(bag.totalMessages(), 0u);
    std::remove(path.c_str());
}

TEST(BagIo, RejectsTruncatedFile)
{
    const ros::Bag original = recordShortDrive();
    const std::string path = tempPath("truncated");
    ASSERT_TRUE(saveSensorBag(original, path));
    // Chop the file in half.
    std::ifstream is(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
    is.close();
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(contents.data(),
                 static_cast<std::streamsize>(contents.size() / 2));
    }
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, path));
    std::remove(path.c_str());
}

TEST(BagIo, RejectsPartialTrailingChannelTag)
{
    // A complete bag plus two stray bytes: they begin a channel tag
    // that never finishes, so the load must report a truncated
    // channel header instead of treating the short read as a clean
    // end of file.
    const ros::Bag original = recordShortDrive();
    const std::string path = tempPath("trailing_tag");
    ASSERT_TRUE(saveSensorBag(original, path));
    {
        std::ofstream os(path, std::ios::binary | std::ios::app);
        os.write("\x01\x00", 2);
    }
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, path));
    std::remove(path.c_str());
}

template <typename T>
void
putRaw(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

TEST(BagIo, RejectsCountBombWithoutAllocating)
{
    // A well-formed prefix (magic, version, point channel with one
    // record and a valid header) followed by a 4-billion point count
    // and no point data. The loader must reject it from the count's
    // implausibility against the bytes remaining — resize()ing first
    // would be a multi-gigabyte allocation serving a 60-byte file.
    const std::string path = tempPath("count_bomb");
    {
        std::ofstream os(path, std::ios::binary);
        putRaw<std::uint32_t>(os, 0x47425641); // "AVBG"
        putRaw<std::uint32_t>(os, 1);          // version
        putRaw<std::uint32_t>(os, 1);          // tagPoints
        putRaw<std::uint64_t>(os, 1);          // one record
        for (int field = 0; field < 5; ++field) // record header
            putRaw<std::uint64_t>(os, 0);
        putRaw<std::uint64_t>(os, 0);           // stampNs
        putRaw<std::uint32_t>(os, 0xffffffffu); // point count bomb
    }
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, path));
    EXPECT_EQ(bag.totalMessages(), 0u);
    std::remove(path.c_str());
}

TEST(BagIo, RejectsOutOfRangeActorClass)
{
    // One camera frame whose visible object carries class 200 —
    // outside the ActorClass enum. Storing it would poison every
    // switch over the enum downstream, so the load must fail.
    const std::string path = tempPath("bad_class");
    {
        std::ofstream os(path, std::ios::binary);
        putRaw<std::uint32_t>(os, 0x47425641); // "AVBG"
        putRaw<std::uint32_t>(os, 1);          // version
        putRaw<std::uint32_t>(os, 2);          // tagImages
        putRaw<std::uint64_t>(os, 1);          // one record
        for (int field = 0; field < 5; ++field) // record header
            putRaw<std::uint64_t>(os, 0);
        putRaw<std::uint32_t>(os, 1920);       // width
        putRaw<std::uint32_t>(os, 1080);       // height
        putRaw<std::uint32_t>(os, 1);          // one object
        putRaw<std::uint32_t>(os, 7);          // truthId
        putRaw<std::uint8_t>(os, 200);         // class: out of range
        for (int field = 0; field < 8; ++field)
            putRaw<double>(os, 0.0);
    }
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, path));
    std::remove(path.c_str());
}

TEST(BagIo, MissingFileFails)
{
    ros::Bag bag;
    EXPECT_FALSE(loadSensorBag(bag, tempPath("nonexistent")));
    EXPECT_FALSE(
        saveSensorBag(bag, "/nonexistent_dir/bag.avbg"));
}

TEST(BagIo, EmptyBagSavesAndLoads)
{
    ros::Bag empty;
    const std::string path = tempPath("empty");
    ASSERT_TRUE(saveSensorBag(empty, path));
    ros::Bag loaded;
    EXPECT_TRUE(loadSensorBag(loaded, path));
    EXPECT_EQ(loaded.totalMessages(), 0u);
    std::remove(path.c_str());
}

} // namespace
