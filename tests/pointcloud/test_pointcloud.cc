/**
 * @file
 * Unit tests for pointcloud: container ops, kd-tree radius queries
 * against brute force, voxel grids.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "pointcloud/cloud.hh"
#include "pointcloud/kdtree.hh"
#include "pointcloud/voxel_grid.hh"
#include "util/random.hh"

namespace {

using namespace av::pc;
using av::geom::Vec3;

PointCloud
randomCloud(std::size_t n, std::uint64_t seed, double span = 50.0)
{
    av::util::Rng rng(seed);
    PointCloud cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back(Point::fromVec({rng.uniform(-span, span),
                                        rng.uniform(-span, span),
                                        rng.uniform(-5.0, 5.0)}));
    }
    return cloud;
}

TEST(Cloud, TransformRoundTrip)
{
    const PointCloud cloud = randomCloud(100, 1);
    const av::geom::Pose pose =
        av::geom::Pose::fromXyzRpy(3, -2, 1, 0.1, 0.0, 0.7);
    PointCloud moved = transformed(cloud, pose);
    transformInPlace(moved, pose.inverse());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_NEAR(moved[i].x, cloud[i].x, 1e-4);
        EXPECT_NEAR(moved[i].y, cloud[i].y, 1e-4);
        EXPECT_NEAR(moved[i].z, cloud[i].z, 1e-4);
    }
}

TEST(Cloud, CentroidOfSymmetricPair)
{
    PointCloud c;
    c.push_back(Point::fromVec({1, 2, 3}));
    c.push_back(Point::fromVec({-1, -2, -3}));
    const Vec3 m = centroid(c);
    EXPECT_NEAR(m.x, 0.0, 1e-6);
    EXPECT_NEAR(m.y, 0.0, 1e-6);
    EXPECT_NEAR(m.z, 0.0, 1e-6);
    EXPECT_DOUBLE_EQ(centroid(PointCloud{}).x, 0.0);
}

TEST(Cloud, MeanAndCovariance)
{
    // Points along the x axis: variance concentrated in cov(0,0).
    PointCloud c;
    for (int i = -5; i <= 5; ++i)
        c.push_back(Point::fromVec({double(i), 0.0, 0.0}));
    Vec3 mean;
    av::geom::Mat3 cov;
    ASSERT_EQ(meanAndCovariance(c, mean, cov), 11u);
    EXPECT_NEAR(mean.x, 0.0, 1e-9);
    EXPECT_NEAR(cov(0, 0), 11.0, 1e-9); // var of -5..5 = 11
    EXPECT_NEAR(cov(1, 1), 0.0, 1e-9);
    EXPECT_NEAR(cov(0, 1), 0.0, 1e-9);
}

TEST(Cloud, CropByRange)
{
    PointCloud c;
    c.push_back(Point::fromVec({1, 0, 0}));
    c.push_back(Point::fromVec({10, 0, 0}));
    c.push_back(Point::fromVec({100, 0, 0}));
    const PointCloud cropped = cropByRange(c, 2.0, 50.0);
    ASSERT_EQ(cropped.size(), 1u);
    EXPECT_FLOAT_EQ(cropped[0].x, 10.0f);
}

TEST(KdTree, RadiusMatchesBruteForce)
{
    const PointCloud cloud = randomCloud(800, 2);
    KdTree tree;
    tree.build(cloud);
    av::util::Rng rng(3);
    std::vector<std::uint32_t> found;
    for (int q = 0; q < 30; ++q) {
        const Vec3 query{rng.uniform(-50, 50), rng.uniform(-50, 50),
                         rng.uniform(-5, 5)};
        const double radius = rng.uniform(1.0, 15.0);
        tree.radiusSearch(query, radius, found);
        std::set<std::uint32_t> expected;
        for (std::uint32_t i = 0; i < cloud.size(); ++i) {
            if (av::geom::squaredDistance(query, cloud[i].vec()) <=
                radius * radius)
                expected.insert(i);
        }
        EXPECT_EQ(std::set<std::uint32_t>(found.begin(), found.end()),
                  expected)
            << "query " << q;
    }
}

TEST(KdTree, EmptyCloud)
{
    PointCloud empty;
    KdTree tree;
    tree.build(empty);
    std::vector<std::uint32_t> out;
    EXPECT_EQ(tree.radiusSearch({0, 0, 0}, 5.0, out), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(KdTree, SinglePoint)
{
    PointCloud c;
    c.push_back(Point::fromVec({1, 1, 1}));
    KdTree tree;
    tree.build(c);
    std::vector<std::uint32_t> out;
    // The point is sqrt(3) from the origin.
    EXPECT_EQ(tree.radiusSearch({0, 0, 0}, 1.8, out), 1u);
    EXPECT_EQ(out, std::vector<std::uint32_t>{0});
    EXPECT_EQ(tree.radiusSearch({0, 0, 0}, 1.7, out), 0u);
}

TEST(VoxelGrid, DownsampleReducesAndPreservesExtent)
{
    const PointCloud cloud = randomCloud(5000, 6, 20.0);
    const PointCloud down = voxelGridDownsample(cloud, 2.0);
    EXPECT_LT(down.size(), cloud.size());
    EXPECT_GT(down.size(), 100u);
    // Centroids stay within the original bounding volume.
    for (const Point &p : down.points) {
        EXPECT_GE(p.x, -20.0f - 1e-3f);
        EXPECT_LE(p.x, 20.0f + 1e-3f);
    }
}

TEST(VoxelGrid, OnePointPerVoxelIsIdentitySize)
{
    PointCloud c;
    for (int i = 0; i < 10; ++i)
        c.push_back(Point::fromVec({i * 10.0, 0, 0}));
    const PointCloud down = voxelGridDownsample(c, 1.0);
    EXPECT_EQ(down.size(), 10u);
}

TEST(VoxelGrid, ClusterCollapsesToCentroid)
{
    PointCloud c;
    c.push_back(Point::fromVec({0.1, 0.1, 0.1}));
    c.push_back(Point::fromVec({0.2, 0.2, 0.2}));
    c.push_back(Point::fromVec({0.3, 0.3, 0.3}));
    const PointCloud down = voxelGridDownsample(c, 1.0);
    ASSERT_EQ(down.size(), 1u);
    EXPECT_NEAR(down[0].x, 0.2, 1e-6);
}

TEST(VoxelGrid, NegativeCoordinatesBinCorrectly)
{
    // Points straddling zero must land in different voxels.
    PointCloud c;
    c.push_back(Point::fromVec({-0.1, 0, 0}));
    c.push_back(Point::fromVec({0.1, 0, 0}));
    const PointCloud down = voxelGridDownsample(c, 1.0);
    EXPECT_EQ(down.size(), 2u);
}

TEST(GaussianVoxelGrid, BuildsVoxelsWithEnoughPoints)
{
    av::util::Rng rng(7);
    PointCloud c;
    // 200 points in one 2m voxel near origin, 2 points far away.
    for (int i = 0; i < 200; ++i)
        c.push_back(Point::fromVec({rng.uniform(0.1, 1.9),
                                    rng.uniform(0.1, 1.9),
                                    rng.uniform(0.1, 1.9)}));
    c.push_back(Point::fromVec({100, 100, 0}));
    c.push_back(Point::fromVec({100.1, 100, 0}));
    GaussianVoxelGrid grid;
    grid.build(c, 2.0);
    EXPECT_EQ(grid.voxelCount(), 1u); // far voxel below min points
    const auto *voxel = grid.lookup({1.0, 1.0, 1.0});
    ASSERT_NE(voxel, nullptr);
    EXPECT_EQ(voxel->count, 200u);
    EXPECT_NEAR(voxel->mean.x, 1.0, 0.15);
    EXPECT_EQ(grid.lookup({50, 50, 50}), nullptr);
}

TEST(GaussianVoxelGrid, NeighborhoodFindsAdjacent)
{
    av::util::Rng rng(8);
    PointCloud c;
    for (int vx = 0; vx < 2; ++vx) {
        for (int i = 0; i < 50; ++i)
            c.push_back(Point::fromVec({vx * 2.0 + rng.uniform(0.1, 1.9),
                                        rng.uniform(0.1, 1.9), 0.5}));
    }
    GaussianVoxelGrid grid;
    grid.build(c, 2.0);
    EXPECT_EQ(grid.voxelCount(), 2u);
    std::vector<const GaussianVoxelGrid::Voxel *> hood;
    grid.neighborhood({1.0, 1.0, 0.5}, hood);
    EXPECT_EQ(hood.size(), 2u); // own voxel + the +x face neighbour
}

TEST(GaussianVoxelGrid, CovarianceInvertible)
{
    av::util::Rng rng(9);
    PointCloud c;
    // Nearly collinear points: regularization must keep the inverse
    // finite.
    for (int i = 0; i < 100; ++i)
        c.push_back(Point::fromVec(
            {i * 0.01, i * 0.02 + rng.gaussian(0, 1e-4), 0.5}));
    GaussianVoxelGrid grid;
    grid.build(c, 2.0);
    ASSERT_EQ(grid.voxelCount(), 1u);
    const auto *voxel = grid.lookup({0.5, 0.5, 0.5});
    ASSERT_NE(voxel, nullptr);
    const auto prod = voxel->covariance * voxel->inverseCovariance;
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(prod(i, i), 1.0, 1e-6);
}

/** Parameterized sweep: kd-tree correctness across sizes. */
class KdTreeSizeTest : public ::testing::TestWithParam<int>
{};

TEST_P(KdTreeSizeTest, RadiusCountsConsistent)
{
    const PointCloud cloud =
        randomCloud(static_cast<std::size_t>(GetParam()), 11);
    KdTree tree;
    tree.build(cloud);
    std::vector<std::uint32_t> out;
    const std::size_t n = tree.radiusSearch({0, 0, 0}, 1000.0, out);
    EXPECT_EQ(n, cloud.size()); // radius covers everything
    std::set<std::uint32_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), cloud.size()); // no duplicates
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeSizeTest,
                         ::testing::Values(1, 2, 3, 10, 101, 1024));

} // namespace
