/**
 * @file
 * Drive recorder: samples the sensor models over a drive and stores
 * the streams in a ros::Bag — the "collect the ROSBAG once, replay
 * it into every configuration" methodology of the paper's Fig. 3.
 */

#ifndef AVSCOPE_WORLD_RECORDER_HH
#define AVSCOPE_WORLD_RECORDER_HH

#include "ros/bag.hh"
#include "util/hash.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace av::world {

/** Topic names shared by recorder and stack (Table IV spelling). */
namespace topics {
inline constexpr const char *pointsRaw = "/points_raw";
inline constexpr const char *imageRaw = "/image_raw";
inline constexpr const char *gnss = "/gnss_pose";
inline constexpr const char *imu = "/imu_raw";
} // namespace topics

/** Sensor publication rates; only the camera's can be varied. */
struct RecorderConfig
{
    static constexpr sim::Tick lidarPeriod = 100 * sim::oneMs; ///< 10 Hz
    static constexpr sim::Tick gnssPeriod = sim::oneSec;       ///< 1 Hz
    static constexpr sim::Tick imuPeriod = 40 * sim::oneMs;    ///< 25 Hz
    sim::Tick cameraPeriod = 66 * sim::oneMs; ///< ~15 Hz
    /** Phase offset of the camera versus the LiDAR (real rigs are
     *  not aligned; interference patterns depend on it). */
    sim::Tick cameraPhase = 37 * sim::oneMs;
};

void
fields(auto &&ar, util::MaybeConst<RecorderConfig> auto &c)
{
    auto &[cameraPeriod, cameraPhase] = c;
    ar(cameraPeriod, cameraPhase);
}

/**
 * Record a complete drive.
 *
 * @param scenario the world
 * @param lidar,camera,gnss,imu sensor models
 * @param duration drive length
 * @param out      bag to fill (channels created on demand)
 */
void recordDrive(const Scenario &scenario, const LidarModel &lidar,
                 const CameraModel &camera, const GnssModel &gnss,
                 const ImuModel &imu, sim::Tick duration,
                 const RecorderConfig &config, ros::Bag &out);

} // namespace av::world

#endif // AVSCOPE_WORLD_RECORDER_HH
