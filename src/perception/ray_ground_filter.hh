/**
 * @file
 * Ray ground filter: split a scan into ground and obstacle points —
 * Autoware's ray_ground_filter node, a key member of both LiDAR
 * computation paths (Table IV) and one of the three
 * optimization-priority nodes the paper identifies (§IV-A).
 *
 * Algorithm (Autoware's): bucket points into azimuth rays, sort each
 * ray by radial distance, then walk outward comparing the local
 * slope against a threshold; points continuing the ground surface
 * are ground, the rest are obstacles.
 */

#ifndef AVSCOPE_PERCEPTION_RAY_GROUND_FILTER_HH
#define AVSCOPE_PERCEPTION_RAY_GROUND_FILTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pointcloud/cloud.hh"
#include "uarch/profiler.hh"

namespace av::perception {

/** Filter parameters (Autoware defaults). */
struct RayGroundConfig
{
    std::uint32_t rays = 360;       ///< azimuth buckets
    double slopeThresholdDeg = 9.0; ///< local ground slope limit
    double initialHeight = 0.0;     ///< ground height at the car
    double minPointDistance = 1.5;  ///< ignore self-returns
    double clippingHeight = 3.5;    ///< everything above: obstacle
    /** General slope limit versus the vehicle's ground plane:
     *  points higher than generalOffset + tan(generalSlopeDeg) * r
     *  can never be ground (catches the first return of a ray
     *  landing on an obstacle). */
    double generalSlopeDeg = 1.5;
    double generalOffset = 0.25;
};

/** Output: the two clouds Autoware publishes. */
struct GroundSplit
{
    pc::PointCloud ground;
    pc::PointCloud noGround;
};

/**
 * The same split as indices into the scan, in the order the filter
 * emits the points: 2 bytes a point instead of a pc::Point.
 */
struct GroundIndices
{
    /** The most points a scan indexed this way may hold. */
    static constexpr std::size_t kMaxPoints = 1u << 16;

    std::vector<std::uint16_t> ground;
    std::vector<std::uint16_t> noGround;

    /** The clouds rayGroundFilter() returns for @p scan. */
    GroundSplit gather(const pc::PointCloud &scan) const;
};

/**
 * Run the filter on a vehicle-frame scan (z = height above ground).
 */
GroundSplit rayGroundFilter(const pc::PointCloud &scan,
                            const RayGroundConfig &config,
                            uarch::KernelProfiler prof =
                                uarch::KernelProfiler());

/**
 * rayGroundFilter() as indices, with the same probes: for a scan of
 * at most GroundIndices::kMaxPoints points,
 * `rayGroundIndices(scan, c, p).gather(scan)` equals
 * `rayGroundFilter(scan, c, p)`.
 */
GroundIndices rayGroundIndices(const pc::PointCloud &scan,
                               const RayGroundConfig &config,
                               uarch::KernelProfiler prof =
                                   uarch::KernelProfiler());

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_RAY_GROUND_FILTER_HH
