#include "world/map_builder.hh"

#include <utility>
#include <vector>

#include "pointcloud/voxel_grid.hh"
#include "util/parallel.hh"
#include "util/random.hh"

namespace av::world {

pc::PointCloud
MapBuilder::build(const Scenario &scenario, const LidarModel &lidar,
                  sim::Tick duration) const
{
    // Mapping poses first, serially, in tick order: the pose-noise
    // stream is one RNG, so its draw order must not follow threads.
    util::Rng rng(config_.seed);
    std::vector<sim::Tick> ticks;
    std::vector<geom::Pose> poses;
    for (sim::Tick t = 0; t <= duration; t += config_.scanInterval) {
        geom::Pose2 pose = scenario.egoPoseAt(t);
        pose.p.x += rng.gaussian(0.0, config_.poseNoiseXy);
        pose.p.y += rng.gaussian(0.0, config_.poseNoiseXy);
        pose.yaw += rng.gaussian(0.0, config_.poseNoiseYaw);
        ticks.push_back(t);
        poses.push_back(pose.lift(0.0));
    }

    // Each keyframe's scan seeds its own noise from its tick, so the
    // scans are independent and land in their own slots.
    std::vector<pc::PointCloud> placed(ticks.size());
    util::parallelFor(ticks.size(), [&](std::size_t i) {
        placed[i] = lidar.scan(scenario, ticks[i]);
        pc::transformInPlace(placed[i], poses[i]);
    });

    // Downsampled as their concatenation without building it; each
    // scan is freed once the grid holds its points.
    return pc::voxelGridDownsample(std::move(placed), config_.voxelLeaf);
}

} // namespace av::world
