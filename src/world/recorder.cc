#include "world/recorder.hh"

#include <vector>

#include "util/parallel.hh"

namespace av::world {

namespace {

template <typename T>
ros::Stamped<T>
stamped(sim::Tick t, T data, std::size_t bytes, bool is_lidar,
        bool is_camera)
{
    ros::Stamped<T> msg;
    msg.header.stamp = t;
    if (is_lidar)
        msg.header.origins.lidar = t;
    if (is_camera)
        msg.header.origins.camera = t;
    msg.data = std::move(data);
    msg.bytes = bytes;
    return msg;
}

} // namespace

void
recordDrive(const Scenario &scenario, const LidarModel &lidar,
            const CameraModel &camera, const GnssModel &gnss,
            const ImuModel &imu, sim::Tick duration,
            const RecorderConfig &config, ros::Bag &out)
{
    auto &points = out.channel<pc::PointCloud>(topics::pointsRaw);
    auto &images = out.channel<CameraFrame>(topics::imageRaw);
    auto &fixes = out.channel<GnssFix>(topics::gnss);
    auto &imus = out.channel<ImuSample>(topics::imu);

    // Scans are independent (each seeds its noise from its tick), so
    // they are built in parallel into index slots and filed in tick
    // order.
    std::vector<sim::Tick> ticks;
    for (sim::Tick t = 0; t <= duration; t += config.lidarPeriod)
        ticks.push_back(t);
    std::vector<pc::PointCloud> scans(ticks.size());
    util::parallelFor(ticks.size(), [&](std::size_t i) {
        scans[i] = lidar.scan(scenario, ticks[i]);
    });
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        const std::size_t bytes = scans[i].byteSize();
        points.add(
            stamped(ticks[i], std::move(scans[i]), bytes, true, false));
    }
    for (sim::Tick t = config.cameraPhase; t <= duration;
         t += config.cameraPeriod) {
        CameraFrame frame = camera.capture(scenario, t);
        const std::size_t bytes =
            static_cast<std::size_t>(frame.width) * frame.height * 3;
        images.add(
            stamped(t, std::move(frame), bytes, false, true));
    }
    for (sim::Tick t = 0; t <= duration; t += config.gnssPeriod)
        fixes.add(stamped(t, gnss.fix(scenario, t), 64, false,
                          false));
    for (sim::Tick t = 0; t <= duration; t += config.imuPeriod)
        imus.add(stamped(t, imu.sample(scenario, t), 48, false,
                         false));
}

} // namespace av::world
