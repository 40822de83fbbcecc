/**
 * @file
 * Object message payloads exchanged between perception nodes — the
 * equivalents of autoware_msgs::DetectedObject(Array).
 */

#ifndef AVSCOPE_PERCEPTION_OBJECTS_HH
#define AVSCOPE_PERCEPTION_OBJECTS_HH

#include <cstdint>
#include <vector>

#include "geom/vec.hh"

namespace av::perception {

/** Semantic class labels (vision adds these; LiDAR alone cannot,
 *  paper §II-B). */
enum class Label : std::uint8_t {
    Unknown,
    Car,
    Truck,
    Pedestrian,
    Cyclist,
};

/** One perceived object at some stage of the pipeline. */
struct DetectedObject
{
    std::uint32_t id = 0;        ///< tracker id (0 before tracking)
    Label label = Label::Unknown;
    double confidence = 0.0;

    geom::Vec2 position;          ///< center, world frame
    double yaw = 0.0;
    double length = 0.0, width = 0.0, height = 0.0;

    bool hasVelocity = false;
    geom::Vec2 velocity;
    double yawRate = 0.0;

    /** Future positions (naive_motion_predict output), 150 ms
     *  spacing. */
    std::vector<geom::Vec2> predictedPath;

    /** Vision-only info (bearing space) before fusion. */
    double bearing = 0.0;
    double rangeEstimate = 0.0;

    /** Ground-truth actor id for accuracy evaluation (0 = none). */
    std::uint32_t truthId = 0;

    /** LiDAR points supporting this object (clusters). */
    std::uint32_t pointCount = 0;
};

/** A list of objects — the DetectedObjectArray equivalent. */
struct ObjectList
{
    std::vector<DetectedObject> objects;

    std::size_t
    byteSize() const
    {
        std::size_t bytes = 64;
        for (const DetectedObject &o : objects)
            bytes += 160 + o.predictedPath.size() * 16;
        return bytes;
    }
};

/** Pose estimate message (ndt_matching output). */
struct PoseEstimate
{
    geom::Vec2 position;
    double yaw = 0.0;
    double fitnessScore = 0.0; ///< NDT matching quality
    std::uint32_t iterations = 0;
    bool converged = false;
};

/** Occupancy costmap message (costmap_generator output). */
struct Costmap
{
    std::uint32_t cellsX = 0;
    std::uint32_t cellsY = 0;
    double resolution = 0.0; ///< m per cell
    geom::Vec2 origin;       ///< world position of cell (0,0)
    std::vector<float> cost; ///< row-major, [0,1]

    float
    at(std::uint32_t x, std::uint32_t y) const
    {
        return cost[static_cast<std::size_t>(y) * cellsX + x];
    }

    std::size_t byteSize() const { return cost.size() * 4 + 64; }
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_OBJECTS_HH
