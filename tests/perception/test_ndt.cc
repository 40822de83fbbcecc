/**
 * @file
 * Focused NDT tests: convergence from perturbed guesses
 * (parameterized sweep), score landscape sanity, degenerate inputs.
 * Uses a synthetic structured environment (ground + walls + posts)
 * rather than the full world, so they run in milliseconds.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "perception/ndt.hh"
#include "pointcloud/voxel_grid.hh"
#include "util/random.hh"

namespace {

using namespace av;
using namespace av::perception;

/** World-frame environment cloud: ground, two walls, four posts. */
pc::PointCloud
environment(std::uint64_t seed = 1)
{
    util::Rng rng(seed);
    pc::PointCloud cloud;
    // Ground disc.
    for (int i = 0; i < 20000; ++i) {
        const double r = rng.uniform(1.0, 45.0);
        const double a = rng.uniform(0.0, 2 * M_PI);
        cloud.push_back(pc::Point::fromVec(
            {r * std::cos(a), r * std::sin(a),
             rng.gaussian(0.0, 0.02)}));
    }
    // Walls along x at y = +-12 (with window gaps for longitudinal
    // structure).
    for (int i = 0; i < 12000; ++i) {
        const double x = rng.uniform(-40.0, 40.0);
        if (std::fmod(std::fabs(x), 11.0) < 2.0)
            continue; // gap
        const double y = rng.bernoulli(0.5) ? 12.0 : -12.0;
        cloud.push_back(pc::Point::fromVec(
            {x, y + rng.gaussian(0.0, 0.03),
             rng.uniform(0.0, 4.0)}));
    }
    // Posts (strong point landmarks).
    for (const double px : {-30.0, -10.0, 10.0, 30.0}) {
        for (int i = 0; i < 400; ++i) {
            cloud.push_back(pc::Point::fromVec(
                {px + rng.gaussian(0.0, 0.05),
                 5.0 + rng.gaussian(0.0, 0.05),
                 rng.uniform(0.0, 3.0)}));
        }
    }
    return cloud;
}

/** Vehicle-frame scan of the environment from @p pose. */
pc::PointCloud
scanFrom(const pc::PointCloud &env, const geom::Pose2 &pose,
         std::uint64_t seed)
{
    util::Rng rng(seed);
    pc::PointCloud scan;
    for (const auto &p : env.points) {
        const geom::Vec2 local = pose.toLocal({p.x, p.y});
        const double range = local.norm();
        if (range > 40.0 || !rng.bernoulli(0.35))
            continue;
        scan.push_back(pc::Point::fromVec(
            {local.x + rng.gaussian(0.0, 0.02),
             local.y + rng.gaussian(0.0, 0.02), p.z}));
    }
    return pc::voxelGridDownsample(scan, 1.0);
}

class NdtFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        env_ = new pc::PointCloud(environment());
        matcher_ = new NdtMatcher();
        matcher_->setMap(*env_);
    }

    static pc::PointCloud *env_;
    static NdtMatcher *matcher_;
};

pc::PointCloud *NdtFixture::env_ = nullptr;
NdtMatcher *NdtFixture::matcher_ = nullptr;

TEST_F(NdtFixture, MapBuilt)
{
    EXPECT_TRUE(matcher_->hasMap());
    // The Gaussian voxel map setMap() builds.
    pc::GaussianVoxelGrid grid;
    grid.build(*env_, NdtConfig().voxelLeaf);
    EXPECT_GT(grid.voxelCount(), 300u);
}

TEST_F(NdtFixture, ConvergesFromModestPerturbation)
{
    const geom::Pose2 truth{{3.0, -2.0}, 0.4};
    const auto scan = scanFrom(*env_, truth, 7);
    geom::Pose2 guess = truth;
    guess.p.x += 0.5;
    guess.p.y -= 0.4;
    guess.yaw += 0.04;
    // Two alignments, as consecutive frames would run (the
    // iteration budget per frame is capped at Autoware-like 8).
    NdtResult r = matcher_->align(scan, guess);
    r = matcher_->align(scan, r.pose);
    EXPECT_TRUE(r.converged);
    EXPECT_LT((r.pose.p - truth.p).norm(), 0.15);
    EXPECT_LT(std::fabs(geom::normalizeAngle(r.pose.yaw -
                                             truth.yaw)),
              0.015);
}

TEST_F(NdtFixture, ScoreHigherAtTruthThanFarAway)
{
    const geom::Pose2 truth{{0, 0}, 0.0};
    const auto scan = scanFrom(*env_, truth, 9);
    const double at_truth = matcher_->score(scan, truth);
    geom::Pose2 off = truth;
    off.p.x += 5.0;
    EXPECT_GT(at_truth, matcher_->score(scan, off) * 1.05);
    geom::Pose2 rotated = truth;
    rotated.yaw += 0.5;
    EXPECT_GT(at_truth, matcher_->score(scan, rotated) * 1.05);
}

TEST_F(NdtFixture, EmptyScanDoesNotCrash)
{
    const NdtResult r =
        matcher_->align(pc::PointCloud{}, geom::Pose2{});
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.matchedPoints, 0u);
}

TEST_F(NdtFixture, ScanOutsideMapDoesNotConverge)
{
    // A scan placed 500 m away finds no voxels: align must return
    // gracefully with zero matches.
    const geom::Pose2 truth{{0, 0}, 0.0};
    const auto scan = scanFrom(*env_, truth, 11);
    geom::Pose2 far;
    far.p = {500.0, 500.0};
    const NdtResult r = matcher_->align(scan, far);
    EXPECT_EQ(r.matchedPoints, 0u);
}

TEST(Ndt, AlignWithoutMapPanics)
{
    NdtMatcher empty;
    EXPECT_DEATH(empty.align(pc::PointCloud{}, geom::Pose2{}),
                 "without a map");
}

/** Sweep: convergence basin across perturbation magnitudes/angles. */
class NdtBasinTest
    : public NdtFixture,
      public ::testing::WithParamInterface<std::tuple<double, double>>
{};

TEST_P(NdtBasinTest, RecoversPose)
{
    const auto [offset, direction] = GetParam();
    const geom::Pose2 truth{{-5.0, 3.0}, 1.1};
    const auto scan = scanFrom(*env_, truth, 13);
    geom::Pose2 guess = truth;
    guess.p.x += offset * std::cos(direction);
    guess.p.y += offset * std::sin(direction);
    NdtResult r = matcher_->align(scan, guess);
    r = matcher_->align(scan, r.pose); // next frame
    EXPECT_LT((r.pose.p - truth.p).norm(), 0.25)
        << "offset " << offset << " dir " << direction;
}

INSTANTIATE_TEST_SUITE_P(
    Basin, NdtBasinTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(0.0, 1.57, 2.5, 4.0)));

} // namespace
