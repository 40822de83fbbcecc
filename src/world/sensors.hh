/**
 * @file
 * Sensor models: spinning LiDAR (raycast against the scenario),
 * camera visibility, GNSS, IMU — the devices the paper's Table I /
 * Fig. 1 sensing layer provides.
 */

#ifndef AVSCOPE_WORLD_SENSORS_HH
#define AVSCOPE_WORLD_SENSORS_HH

#include <cstdint>
#include <vector>

#include "pointcloud/cloud.hh"
#include "world/scenario.hh"

namespace av::world {

/** LiDAR device parameters (16-channel spinning unit by default). */
struct LidarConfig
{
    std::uint32_t beams = 16;
    std::uint32_t azimuthSteps = 900; ///< per revolution
    double verticalFovDeg = 30.0;     ///< symmetric around horizon
    double maxRange = 80.0;           ///< meters
    double minRange = 1.0;
    double rangeNoise = 0.02;         ///< sigma, meters
    double mountHeight = 1.9;         ///< above ground
    double dropProb = 0.02;           ///< returns lost (dark surfaces)
};

/**
 * Spinning LiDAR: one full revolution per scan, hits against the
 * ground plane, buildings and actors. Points are emitted in the
 * sensor frame (x forward, z up), Velodyne-driver style.
 */
class LidarModel
{
  public:
    explicit LidarModel(const LidarConfig &config = LidarConfig(),
                        std::uint64_t seed = 7);

    /**
     * Produce the scan acquired at time @p t from the scenario's
     * scripted ego pose. Deterministic in (scenario, t, seed).
     */
    pc::PointCloud scan(const Scenario &scenario, sim::Tick t) const;

    /**
     * Scan from an explicit ego pose (closed-loop driving, where
     * the ego is controlled rather than scripted).
     */
    pc::PointCloud scan(const Scenario &scenario, sim::Tick t,
                        const geom::Pose2 &ego) const;

    const LidarConfig &config() const { return config_; }

  private:
    LidarConfig config_;
    std::uint64_t seed_;
};

/** One object the camera can see (ground truth + image geometry). */
struct VisibleObject
{
    std::uint32_t truthId = 0;
    ActorClass cls = ActorClass::Car;
    double range = 0.0;      ///< meters from camera
    double bearing = 0.0;    ///< radians, left positive
    double imageHeightPx = 0.0; ///< apparent size (detectability)
    geom::Vec2 worldPos;     ///< object center, world frame
    geom::Vec2 worldVelocity;
    double occlusion = 0.0;  ///< fraction hidden [0, 1]
};

/** Camera payload published on /image_raw: pixels are not
 *  synthesized; the frame carries the ground-truth visible set the
 *  detector model consumes, and the byte size of the real image for
 *  transport accounting. */
struct CameraFrame
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::vector<VisibleObject> truth;
};

/** Camera parameters. */
struct CameraConfig
{
    std::uint32_t width = 1280;
    std::uint32_t height = 720;
    double horizontalFovDeg = 90.0;
    double maxRange = 70.0;
    double focalPx = 700.0; ///< for apparent-size computation
};

/**
 * Pinhole-ish visibility model with coarse occlusion against
 * buildings and closer actors.
 */
class CameraModel
{
  public:
    explicit CameraModel(const CameraConfig &config = CameraConfig());

    /** Frame captured at time @p t (scripted ego pose). */
    CameraFrame capture(const Scenario &scenario, sim::Tick t) const;

    /** Frame captured from an explicit ego pose. */
    CameraFrame capture(const Scenario &scenario, sim::Tick t,
                        const geom::Pose2 &ego) const;

    const CameraConfig &config() const { return config_; }

  private:
    CameraConfig config_;
};

/** GNSS fix payload. */
struct GnssFix
{
    geom::Vec3 position;
    double horizontalErr = 0.0; ///< 1-sigma, meters
};

/** GNSS with meter-level noise (paper §II-A). */
class GnssModel
{
  public:
    explicit GnssModel(double sigma = 1.5, std::uint64_t seed = 11)
        : sigma_(sigma), seed_(seed)
    {}

    GnssFix fix(const Scenario &scenario, sim::Tick t) const;

  private:
    double sigma_;
    std::uint64_t seed_;
};

/** IMU sample payload. */
struct ImuSample
{
    double yawRate = 0.0;    ///< rad/s
    double accelX = 0.0;     ///< m/s^2, body frame
    double speed = 0.0;      ///< wheel-odometry style velocity
};

/** IMU/odometry with small gaussian noise. */
class ImuModel
{
  public:
    explicit ImuModel(std::uint64_t seed = 13) : seed_(seed) {}

    ImuSample sample(const Scenario &scenario, sim::Tick t) const;

  private:
    std::uint64_t seed_;
};

} // namespace av::world

#endif // AVSCOPE_WORLD_SENSORS_HH
