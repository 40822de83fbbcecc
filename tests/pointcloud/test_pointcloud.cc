/**
 * @file
 * Unit tests for pointcloud: container ops, kd-tree radius queries
 * against brute force, voxel grids.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "pointcloud/cloud.hh"
#include "pointcloud/kdtree.hh"
#include "pointcloud/voxel_grid.hh"
#include "uarch/profiler.hh"
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
    const av::geom::Pose pose{{3, -2, 1},
                              av::geom::Quat::fromRpy(0.1, 0.0, 0.7)};
    PointCloud moved = cloud;
    transformInPlace(moved, pose);
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

/**
 * Downsample @p parts and their concatenation, each with its own
 * tracing NodeArchState (trace period 1): points, their order and
 * bits, the stamp, op counts, and cache and branch counters must all
 * be equal.
 */
void
expectPartsEqualConcatenation(const std::vector<PointCloud> &parts,
                              double leaf)
{
    PointCloud cat;
    for (const PointCloud &part : parts)
        cat.points.insert(cat.points.end(), part.points.begin(),
                          part.points.end());

    const auto tracing = [] {
        return av::uarch::NodeArchState(av::uarch::CacheConfig(),
                                        av::uarch::BranchConfig(),
                                        av::uarch::PipelineConfig(), 1);
    };
    av::uarch::NodeArchState ref_arch = tracing();
    av::uarch::NodeArchState got_arch = tracing();
    ref_arch.beginInvocation();
    got_arch.beginInvocation();
    const PointCloud ref = voxelGridDownsample(
        cat, leaf, av::uarch::KernelProfiler(&ref_arch));
    const PointCloud got = voxelGridDownsample(
        parts, leaf, av::uarch::KernelProfiler(&got_arch));
    ref_arch.endInvocation();
    got_arch.endInvocation();

    EXPECT_EQ(ref.stampNs, got.stampNs);
    ASSERT_EQ(ref.size(), got.size());
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(bits(ref[i].x), bits(got[i].x)) << "point " << i;
        EXPECT_EQ(bits(ref[i].y), bits(got[i].y)) << "point " << i;
        EXPECT_EQ(bits(ref[i].z), bits(got[i].z)) << "point " << i;
        EXPECT_EQ(bits(ref[i].intensity), bits(got[i].intensity))
            << "point " << i;
        EXPECT_EQ(ref[i].ring, got[i].ring) << "point " << i;
    }

    const av::uarch::CacheStats &rc = ref_arch.cacheStats();
    const av::uarch::CacheStats &gc = got_arch.cacheStats();
    EXPECT_EQ(rc.readHits, gc.readHits);
    EXPECT_EQ(rc.readMisses, gc.readMisses);
    EXPECT_EQ(rc.writeHits, gc.writeHits);
    EXPECT_EQ(rc.writeMisses, gc.writeMisses);
    EXPECT_EQ(ref_arch.branchStats().predicted,
              got_arch.branchStats().predicted);
    EXPECT_EQ(ref_arch.branchStats().mispredicted,
              got_arch.branchStats().mispredicted);
    const av::uarch::OpCounts &ro = ref_arch.totalOps();
    const av::uarch::OpCounts &go = got_arch.totalOps();
    EXPECT_EQ(ro.loads, go.loads);
    EXPECT_EQ(ro.stores, go.stores);
    EXPECT_EQ(ro.branches, go.branches);
    EXPECT_EQ(ro.intAlu, go.intAlu);
    EXPECT_EQ(ro.fpAlu, go.fpAlu);
    EXPECT_EQ(ro.fpDiv, go.fpDiv);
}

TEST(VoxelGrid, PartsEqualConcatenation)
{
    // Overlapping parts, so voxels collect points from several of
    // them; stamped, though the output's stamp must be the appended
    // cloud's, 0.
    std::vector<PointCloud> parts;
    std::uint64_t seed = 20;
    for (const std::size_t n : {0, 1, 700, 0, 2500, 1200}) {
        parts.push_back(randomCloud(n, ++seed, 15.0));
        parts.back().stampNs = 1000 * seed;
        for (Point &p : parts.back().points)
            p.intensity = static_cast<float>(seed);
    }
    for (const double leaf : {2.0, 0.7}) {
        expectPartsEqualConcatenation(parts, leaf);
        expectPartsEqualConcatenation({parts[4]}, leaf);
        expectPartsEqualConcatenation({parts[4], parts[5]}, leaf);
    }
    expectPartsEqualConcatenation({}, 1.0);
    expectPartsEqualConcatenation({PointCloud{}, PointCloud{}}, 1.0);
    expectPartsEqualConcatenation({parts[0]}, 1.0);
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
