/**
 * @file
 * Point-cloud container and basic operations.
 *
 * The LiDAR pipeline (voxel filter, NDT localization, ground
 * removal, clustering — the paper's "LiDAR-related components" that
 * Finding 1/2 highlight) all operate on this type. It replaces the
 * PCL types Autoware uses.
 */

#ifndef AVSCOPE_POINTCLOUD_CLOUD_HH
#define AVSCOPE_POINTCLOUD_CLOUD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/mat.hh"
#include "geom/pose.hh"
#include "geom/vec.hh"

namespace av::pc {

/**
 * One LiDAR return. Matches the fields a Velodyne driver publishes.
 */
struct Point
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;
    float intensity = 0.0f;
    std::uint16_t ring = 0; ///< laser index (vertical channel)

    geom::Vec3 vec() const { return {x, y, z}; }

    static Point
    fromVec(const geom::Vec3 &v, float intensity = 0.0f,
            std::uint16_t ring = 0)
    {
        return {static_cast<float>(v.x), static_cast<float>(v.y),
                static_cast<float>(v.z), intensity, ring};
    }
};

/**
 * A collection of points with an acquisition timestamp.
 */
struct PointCloud
{
    std::vector<Point> points;
    std::uint64_t stampNs = 0; ///< acquisition time (virtual ns)

    std::size_t size() const { return points.size(); }
    bool empty() const { return points.empty(); }
    void clear() { points.clear(); }
    void reserve(std::size_t n) { points.reserve(n); }
    void push_back(const Point &p) { points.push_back(p); }
    Point &operator[](std::size_t i) { return points[i]; }
    const Point &operator[](std::size_t i) const { return points[i]; }

    /** Approximate serialized size (what ROS would ship). */
    std::size_t byteSize() const
    {
        return points.size() * sizeof(Point) + 64;
    }
};

/** Rigidly transform every point in place: p' = pose.apply(p). */
void transformInPlace(PointCloud &cloud, const geom::Pose &pose);

/** Arithmetic mean of all points; zero for an empty cloud. */
geom::Vec3 centroid(const PointCloud &cloud);

/**
 * Mean and covariance of a set of points referenced by index.
 * @return number of points used.
 */
std::size_t meanAndCovariance(const PointCloud &cloud,
                              const std::vector<std::uint32_t> &indices,
                              geom::Vec3 &mean, geom::Mat3 &cov);

/** Mean and covariance of a whole cloud. */
std::size_t meanAndCovariance(const PointCloud &cloud, geom::Vec3 &mean,
                              geom::Mat3 &cov);

} // namespace av::pc

#endif // AVSCOPE_POINTCLOUD_CLOUD_HH
