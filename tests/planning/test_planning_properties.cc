/**
 * @file
 * Property sweeps over the planning layer: route networks of varied
 * shapes, rollout-count sweeps, speed-profile invariants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "planning/local_planner.hh"
#include "planning/pure_pursuit.hh"
#include "planning/route.hh"
#include "util/random.hh"

namespace {

using namespace av;
using namespace av::plan;

/** Loop shapes: (corners, width, height). */
class RouteShapeTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>>
{
  protected:
    std::vector<geom::Vec2>
    polygon() const
    {
        const auto [n, w, h] = GetParam();
        std::vector<geom::Vec2> corners;
        for (int i = 0; i < n; ++i) {
            const double a = 2.0 * M_PI * i / n;
            corners.push_back(
                {w * std::cos(a), h * std::sin(a)});
        }
        return corners;
    }
};

TEST_P(RouteShapeTest, PlanReachesEveryNodeFromEveryStart)
{
    const std::vector<geom::Vec2> corners = polygon();
    const RouteNetwork net = RouteNetwork::fromLoop(corners, 6.0);
    util::Rng rng(5);
    // The node nearest a uniformly drawn point on the loop.
    const auto anyNode = [&] {
        const auto k = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<long>(corners.size()) - 1));
        const geom::Vec2 a = corners[k];
        const geom::Vec2 b = corners[(k + 1) % corners.size()];
        return net.nearestNode(a + (b - a) * rng.uniform(0.0, 1.0));
    };
    for (int trial = 0; trial < 10; ++trial) {
        const std::uint32_t from = anyNode();
        const std::uint32_t to = anyNode();
        const auto path = net.plan(from, to);
        ASSERT_FALSE(path.empty());
        EXPECT_NEAR((path.front() - net.position(from)).norm(), 0.0,
                    1e-9);
        EXPECT_NEAR((path.back() - net.position(to)).norm(), 0.0,
                    1e-9);
        // Consecutive waypoints are connected (bounded spacing).
        for (std::size_t i = 1; i < path.size(); ++i)
            EXPECT_LT((path[i] - path[i - 1]).norm(), 12.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RouteShapeTest,
    ::testing::Values(std::make_tuple(3, 60.0, 60.0),
                      std::make_tuple(4, 100.0, 60.0),
                      std::make_tuple(6, 80.0, 80.0),
                      std::make_tuple(12, 120.0, 50.0)));

std::vector<geom::Vec2>
straight(std::size_t n)
{
    std::vector<geom::Vec2> path;
    for (std::size_t i = 0; i <= n; ++i)
        path.push_back({static_cast<double>(i), 0.0});
    return path;
}

/** Rollout-count sweep: more candidates never give a worse plan. */
class RolloutCountTest : public ::testing::TestWithParam<int>
{};

TEST_P(RolloutCountTest, MoreRolloutsNotWorse)
{
    // Obstacle offset from the centerline: with one rollout the
    // planner must brake; with several it can swerve.
    perception::Costmap map;
    map.resolution = 0.25;
    map.cellsX = map.cellsY = 240;
    map.origin = {-30.0, -30.0};
    map.cost.assign(240 * 240, 0.0f);
    for (std::uint32_t y = 0; y < 240; ++y)
        for (std::uint32_t x = 0; x < 240; ++x) {
            const geom::Vec2 w{map.origin.x + x * map.resolution,
                               map.origin.y + y * map.resolution};
            if ((w - geom::Vec2{12, 0}).norm() < 1.0)
                map.cost[y * 240 + x] = 1.0f;
        }

    LocalPlannerConfig cfg;
    cfg.rollouts = static_cast<std::uint32_t>(GetParam());
    const Trajectory t =
        planLocal(straight(60), {{0, 0}, 0.0}, map, cfg);
    ASSERT_FALSE(t.points.empty());
    if (cfg.rollouts >= 3) {
        // Enough candidates to dodge: no full stop required.
        double min_speed = 1e9;
        for (const double v : t.speeds)
            min_speed = std::min(min_speed, v);
        EXPECT_GT(min_speed, 0.5) << "rollouts " << cfg.rollouts;
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, RolloutCountTest,
                         ::testing::Values(1, 3, 5, 7, 11));

TEST(SpeedProfile, DecelerationBounded)
{
    // The backward pass enforces v_i^2 <= v_{i+1}^2 + 2 a ds.
    perception::Costmap map;
    map.resolution = 0.25;
    map.cellsX = map.cellsY = 240;
    map.origin = {-30.0, -30.0};
    map.cost.assign(240 * 240, 0.0f);
    // Wall at x = 18 across everything.
    for (std::uint32_t y = 0; y < 240; ++y)
        for (std::uint32_t x = 0; x < 240; ++x) {
            const double wx = map.origin.x + x * map.resolution;
            if (wx > 18.0 && wx < 21.0)
                map.cost[y * 240 + x] = 1.0f;
        }
    const Trajectory t =
        planLocal(straight(60), {{0, 0}, 0.0}, map);
    ASSERT_GT(t.speeds.size(), 3u);
    for (std::size_t i = 0; i + 1 < t.speeds.size(); ++i) {
        const double ds =
            (t.points[i + 1] - t.points[i]).norm();
        EXPECT_LE(t.speeds[i] * t.speeds[i],
                  t.speeds[i + 1] * t.speeds[i + 1] +
                      2.0 * 2.5 * ds + 1e-6)
            << "at " << i;
    }
}

TEST(PurePursuitSweep, AngularCommandBounded)
{
    PurePursuitConfig cfg;
    util::Rng rng(8);
    for (int trial = 0; trial < 50; ++trial) {
        Trajectory t;
        for (int i = 0; i <= 20; ++i) {
            t.points.push_back({rng.uniform(-20.0, 20.0),
                                rng.uniform(-20.0, 20.0)});
            t.speeds.push_back(rng.uniform(0.0, 10.0));
        }
        const Twist cmd = purePursuit(
            t, {{rng.uniform(-5, 5), rng.uniform(-5, 5)},
                rng.uniform(-3, 3)},
            rng.uniform(0.0, 10.0), cfg);
        EXPECT_LE(std::fabs(cmd.angular), cfg.maxAngular + 1e-12);
        EXPECT_GE(cmd.linear, 0.0);
    }
}

} // namespace
