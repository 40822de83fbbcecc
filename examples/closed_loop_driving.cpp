/**
 * @file
 * Closed-loop driving: the perception algorithms localize and
 * perceive from live synthetic sensors while the planning/actuation
 * layer (global route -> rollout local planner -> pure pursuit ->
 * twist filter) drives a kinematic vehicle around the block —
 * the control pipeline the paper could not exercise for lack of an
 * annotated map (SIII-C), completing the Fig. 1 architecture.
 *
 * Everything runs functionally (host time, no platform simulation):
 * this example is about the algorithms closing the loop.
 *
 *   ./closed_loop_driving --duration 60
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/motion_predict.hh"
#include "perception/ndt.hh"
#include "perception/ray_ground_filter.hh"
#include "planning/local_planner.hh"
#include "planning/pure_pursuit.hh"
#include "planning/route.hh"
#include "planning/vehicle.hh"
#include "pointcloud/voxel_grid.hh"
#include "world/map_builder.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

using namespace av;

int
main(int argc, char **argv)
{
    const bench::BenchOptions flags = bench::parseOrExit(
        bench::BenchOptions().integer("duration", 60,
                                      "drive length in seconds", 1),
        argc, argv);
    const long seconds = flags.integer("duration");

    // World + sensors.
    world::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.vehicleLaneOffset = 3.4; // keep NPC traffic in its own lane
    cfg.nVehicles = 8;
    const world::Scenario scenario(cfg);
    const world::LidarModel lidar;

    // Map the block first (ndt_mapping pass on the scripted route,
    // driven on a quiet street so no moving traffic is baked into
    // the map as ghost geometry).
    std::printf("building point-cloud map ...\n");
    world::ScenarioConfig quiet_cfg = cfg;
    quiet_cfg.nVehicles = 0;
    quiet_cfg.nPedestrians = 0;
    const world::Scenario quiet(quiet_cfg);
    const world::MapBuilder map_builder;
    const double loop_s =
        scenario.routeLength() / cfg.egoSpeed;
    const pc::PointCloud map = map_builder.build(
        quiet, lidar, sim::secondsToTicks(loop_s));

    perception::NdtMatcher matcher;
    matcher.setMap(map);

    // Global route: the whole loop (lane-level map annotation).
    const plan::RouteNetwork net =
        plan::RouteNetwork::fromLoop(scenario.route(), 4.0);
    const geom::Pose2 start = scenario.egoPoseAt(0);
    // Destination: one spacing behind the start along the loop, so
    // the A* route covers the entire block.
    const geom::Vec2 behind =
        scenario.poseOnRoute(scenario.routeLength() - 6.0).p;
    const auto global = plan::densifyPath(
        net.plan(start.p, behind), 1.0);
    std::printf("global route: %zu waypoints, %.0f m\n",
                global.size(), scenario.routeLength());

    // The controlled vehicle.
    plan::VehicleModel car(start);
    plan::TwistFilter twist_filter;
    geom::Pose2 believed = start; // NDT's estimate

    const double dt = 0.05; // 20 Hz control
    double loc_err_acc = 0.0, loc_err_max = 0.0;
    double min_actor_gap = 1e9;
    double distance_driven = 0.0;
    geom::Pose2 prev_pose = car.pose();
    int steps = 0;

    for (double t = 0.0; t < static_cast<double>(seconds);
         t += dt, ++steps) {
        const auto now = sim::secondsToTicks(t);

        // ---- perception (LiDAR pipeline, every control tick) ----
        const pc::PointCloud scan =
            lidar.scan(scenario, now, car.pose());

        // Localization: voxel filter + NDT against the map.
        const pc::PointCloud filtered =
            pc::voxelGridDownsample(scan, 1.5);
        // Dead-reckon the guess with wheel odometry (speed + yaw
        // rate), as ndt_matching does with the IMU.
        geom::Pose2 guess = believed;
        guess.yaw = geom::normalizeAngle(believed.yaw +
                                         car.yawRate() * dt);
        guess.p += geom::Vec2{car.speed() * dt, 0.0}.rotated(
            guess.yaw);
        const perception::NdtResult fix =
            matcher.align(filtered, guess);
        believed = fix.pose;
        const double loc_err = (believed.p - car.pose().p).norm();
        loc_err_acc += loc_err;
        loc_err_max = std::max(loc_err_max, loc_err);

        // Obstacles: ground removal + clustering + costmap.
        const auto split = perception::rayGroundFilter(
            scan, perception::RayGroundConfig());
        const auto cropped = perception::cropForClustering(
            split.noGround, perception::ClusterConfig());
        const auto clusters = perception::euclideanCluster(
            cropped, perception::ClusterConfig());
        perception::ObjectList objects;
        for (const auto &cl : clusters) {
            perception::DetectedObject obj;
            obj.position =
                believed.apply({cl.centroid.x, cl.centroid.y});
            obj.yaw = cl.yaw + believed.yaw;
            obj.length = cl.length;
            obj.width = cl.width;
            objects.objects.push_back(obj);
        }
        const perception::Costmap costmap =
            perception::generateObjectCostmap(
                objects, believed, perception::CostmapConfig());

        // ---- planning + control ----
        const plan::Trajectory local =
            plan::planLocal(global, believed, costmap);
        const plan::Twist raw =
            plan::purePursuit(local, believed, car.speed());
        const plan::Twist cmd = twist_filter.apply(raw, dt);
        car.step(cmd, dt);

        distance_driven += (car.pose().p - prev_pose.p).norm();
        prev_pose = car.pose();

        // Safety: closest actor.
        for (const auto &actor : scenario.actorsAt(now)) {
            min_actor_gap = std::min(
                min_actor_gap,
                (actor.box.pose.p - car.pose().p).norm());
        }

        if (steps % 100 == 0) {
            std::printf("t=%5.1fs pos=(%7.1f,%7.1f) v=%4.1f m/s  "
                        "loc err %.2f m  clusters %2zu  rollout %+d\n",
                        t, car.pose().p.x, car.pose().p.y,
                        car.speed(), loc_err, clusters.size(),
                        local.rolloutIndex);
        }
    }

    std::printf("\ndrove %.0f m in %ld s (avg %.1f m/s)\n",
                distance_driven, seconds,
                distance_driven / static_cast<double>(seconds));
    std::printf("NDT localization error: mean %.2f m, max %.2f m\n",
                loc_err_acc / steps, loc_err_max);
    std::printf("closest approach to another actor: %.1f m\n",
                min_actor_gap);
    return 0;
}
