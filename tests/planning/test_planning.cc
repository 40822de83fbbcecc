/**
 * @file
 * Unit tests for the planning/actuation layer: global route A*,
 * rollout local planner, pure pursuit, twist filter, vehicle model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "planning/local_planner.hh"
#include "planning/pure_pursuit.hh"
#include "planning/route.hh"
#include "planning/vehicle.hh"

namespace {

using namespace av;
using namespace av::plan;

TEST(Route, PlansAlongLoop)
{
    const RouteNetwork net = RouteNetwork::fromLoop(
        {{0, 0}, {100, 0}, {100, 60}, {0, 60}}, 5.0);
    const auto path = net.plan(geom::Vec2{2, 0}, geom::Vec2{98, 0});
    ASSERT_GE(path.size(), 2u);
    EXPECT_NEAR(path.front().x, 0.0, 6.0);
    EXPECT_NEAR(path.back().x, 98.0, 6.0);
    // Monotone along +x on the bottom edge.
    for (std::size_t i = 1; i < path.size(); ++i)
        EXPECT_GE(path[i].x + 1e-9, path[i - 1].x);
}

TEST(Route, RespectsEdgeDirection)
{
    // One-way loop: going "backwards" must go the long way round.
    const RouteNetwork net = RouteNetwork::fromLoop(
        {{0, 0}, {100, 0}, {100, 60}, {0, 60}}, 5.0);
    const auto forward =
        net.plan(geom::Vec2{0, 0}, geom::Vec2{50, 0});
    const auto backward =
        net.plan(geom::Vec2{50, 0}, geom::Vec2{0, 0});
    ASSERT_FALSE(forward.empty());
    ASSERT_FALSE(backward.empty());
    EXPECT_GT(backward.size(), forward.size() * 2);
}

TEST(Route, UnreachableIsEmpty)
{
    RouteNetwork net;
    const auto a = net.addNode({0, 0});
    const auto b = net.addNode({10, 0});
    const auto c = net.addNode({20, 0});
    net.addEdge(a, b); // c unreachable
    EXPECT_TRUE(net.plan(a, c).empty());
    EXPECT_FALSE(net.plan(a, b).empty());
}

TEST(Route, DensifyBoundsSpacing)
{
    const auto dense =
        densifyPath({{0, 0}, {10, 0}, {10, 10}}, 1.0);
    ASSERT_GT(dense.size(), 15u);
    for (std::size_t i = 1; i < dense.size(); ++i)
        EXPECT_LE((dense[i] - dense[i - 1]).norm(), 1.0 + 1e-9);
}

std::vector<geom::Vec2>
straightPath()
{
    std::vector<geom::Vec2> path;
    for (int i = 0; i <= 60; ++i)
        path.push_back({static_cast<double>(i), 0.0});
    return path;
}

TEST(LocalPlanner, EmptyCostmapFollowsCenterline)
{
    const Trajectory t = planLocal(straightPath(), {{0, 0}, 0.0},
                                   perception::Costmap{});
    ASSERT_FALSE(t.points.empty());
    EXPECT_EQ(t.rolloutIndex, 0); // no reason to offset
    for (const auto &p : t.points)
        EXPECT_NEAR(p.y, 0.0, 1e-9);
    for (const double v : t.speeds)
        EXPECT_GT(v, 5.0); // cruises
}

perception::Costmap
costmapWithBlob(const geom::Vec2 &center, double radius)
{
    perception::Costmap map;
    map.resolution = 0.2;
    map.cellsX = map.cellsY = 300;
    map.origin = {-30.0, -30.0};
    map.cost.assign(300 * 300, 0.0f);
    for (std::uint32_t y = 0; y < 300; ++y) {
        for (std::uint32_t x = 0; x < 300; ++x) {
            const geom::Vec2 w{map.origin.x + x * map.resolution,
                               map.origin.y + y * map.resolution};
            if ((w - center).norm() < radius)
                map.cost[y * 300 + x] = 1.0f;
        }
    }
    return map;
}

TEST(LocalPlanner, SwervesAroundObstacle)
{
    // Obstacle on the centerline 10 m ahead: the winning rollout
    // must be offset and keep its cells free.
    const auto map = costmapWithBlob({10, 0}, 1.2);
    const Trajectory t =
        planLocal(straightPath(), {{0, 0}, 0.0}, map);
    ASSERT_FALSE(t.points.empty());
    EXPECT_NE(t.rolloutIndex, 0);
    for (const auto &p : t.points)
        EXPECT_LT(costmapAt(map, p), 0.9);
}

TEST(LocalPlanner, StopsWhenFullyBlocked)
{
    // A wall across every rollout: speeds must reach zero before it.
    const auto map = costmapWithBlob({12, 0}, 6.0);
    const Trajectory t =
        planLocal(straightPath(), {{0, 0}, 0.0}, map);
    ASSERT_FALSE(t.speeds.empty());
    bool stops = false;
    for (const double v : t.speeds)
        stops |= v <= 1e-9;
    EXPECT_TRUE(stops);
}

TEST(PurePursuit, StraightPathGoesStraight)
{
    Trajectory t;
    for (int i = 0; i <= 30; ++i) {
        t.points.push_back({static_cast<double>(i), 0.0});
        t.speeds.push_back(8.0);
    }
    const Twist cmd = purePursuit(t, {{0, 0}, 0.0}, 8.0);
    EXPECT_NEAR(cmd.angular, 0.0, 1e-9);
    EXPECT_GT(cmd.linear, 5.0);
}

TEST(PurePursuit, SteersTowardOffsetPath)
{
    Trajectory t;
    for (int i = 0; i <= 30; ++i) {
        t.points.push_back({static_cast<double>(i), 3.0});
        t.speeds.push_back(8.0);
    }
    const Twist cmd = purePursuit(t, {{0, 0}, 0.0}, 8.0);
    EXPECT_GT(cmd.angular, 0.05); // turn left toward the path
}

TEST(PurePursuit, EmptyTrajectoryStops)
{
    const Twist cmd = purePursuit(Trajectory{}, {{0, 0}, 0.0}, 8.0);
    EXPECT_DOUBLE_EQ(cmd.linear, 0.0);
    EXPECT_DOUBLE_EQ(cmd.angular, 0.0);
}

TEST(TwistFilter, SmoothsStepInput)
{
    TwistFilter filter;
    const Twist step{8.0, 0.5};
    const Twist first = filter.apply(step, 0.1);
    EXPECT_LT(first.linear, 1.0); // rate limited: 2.5 m/s^2 * 0.1 s
    Twist last = first;
    for (int i = 0; i < 100; ++i)
        last = filter.apply(step, 0.1);
    EXPECT_NEAR(last.linear, 8.0, 0.2); // converges
    EXPECT_NEAR(last.angular, 0.5, 0.05);
}

TEST(TwistFilter, RateLimitHolds)
{
    TwistFilter filter;
    Twist prev{};
    for (int i = 0; i < 50; ++i) {
        const Twist cur = filter.apply(Twist{20.0, 2.0}, 0.1);
        EXPECT_LE(cur.linear - prev.linear, 0.25 + 1e-9);
        EXPECT_LE(std::fabs(cur.angular - prev.angular),
                  0.15 + 1e-9);
        prev = cur;
    }
}

TEST(Vehicle, DrivesStraightUnderConstantTwist)
{
    VehicleModel car({{0, 0}, 0.0}, 0.0); // no lag
    for (int i = 0; i < 100; ++i)
        car.step(Twist{5.0, 0.0}, 0.1);
    EXPECT_NEAR(car.pose().p.x, 50.0, 0.5);
    EXPECT_NEAR(car.pose().p.y, 0.0, 1e-6);
}

TEST(Vehicle, TurnsUnderAngularTwist)
{
    VehicleModel car({{0, 0}, 0.0}, 0.0);
    // Quarter circle: v = 5, w = 0.5 -> radius 10 m.
    const double t_quarter = (M_PI / 2.0) / 0.5;
    const int steps = 1000;
    for (int i = 0; i < steps; ++i)
        car.step(Twist{5.0, 0.5}, t_quarter / steps);
    EXPECT_NEAR(car.pose().yaw, M_PI / 2.0, 0.02);
    EXPECT_NEAR(car.pose().p.x, 10.0, 0.3);
    EXPECT_NEAR(car.pose().p.y, 10.0, 0.3);
}

TEST(Vehicle, ActuationLagDelaysResponse)
{
    VehicleModel lagless({{0, 0}, 0.0}, 0.0);
    VehicleModel laggy({{0, 0}, 0.0}, 0.5);
    lagless.step(Twist{8.0, 0.0}, 0.1);
    laggy.step(Twist{8.0, 0.0}, 0.1);
    EXPECT_GT(lagless.speed(), laggy.speed());
}

/** Integration: pure pursuit + vehicle follow a square loop. */
TEST(ClosedLoop, FollowsLoopWithinLaneWidth)
{
    const RouteNetwork net = RouteNetwork::fromLoop(
        {{0, 0}, {80, 0}, {80, 50}, {0, 50}}, 4.0);
    const auto global = densifyPath(
        net.plan(geom::Vec2{0, 0}, geom::Vec2{0, 4}), 1.0);
    ASSERT_GT(global.size(), 100u);

    VehicleModel car({{0, 0}, 0.0});
    TwistFilter filter;
    double worst_offset = 0.0;
    for (int step = 0; step < 3000; ++step) {
        const Trajectory local = planLocal(
            global, car.pose(), perception::Costmap{});
        const Twist raw =
            purePursuit(local, car.pose(), car.speed());
        const Twist cmd = filter.apply(raw, 0.02);
        car.step(cmd, 0.02);
        // Distance to the nearest global waypoint.
        double best = 1e9;
        for (const auto &p : global)
            best = std::min(best, (p - car.pose().p).norm());
        if (step > 200) // after pull-away
            worst_offset = std::max(worst_offset, best);
    }
    EXPECT_LT(worst_offset, 2.5); // stays in lane
    EXPECT_GT(car.speed(), 4.0);  // and keeps moving
}

} // namespace
