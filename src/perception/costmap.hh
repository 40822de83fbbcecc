/**
 * @file
 * Costmap generation — Autoware's costmap_generator: rasterize the
 * drivable area around the ego vehicle from (a) predicted objects
 * and (b) the obstacle point cloud. The paper profiles the two
 * callbacks separately (costmap_generator_obj is the latency-heavy
 * one, Fig. 5) and finds the node compute-bound with excellent
 * locality (IPC 2.07, Table VII) — which is what sequential raster
 * sweeps over a dense grid give.
 *
 * Each inflated disc is painted row span by row span, but its probe
 * stream is that of a cell-by-cell sweep: every 8th painted cell, in
 * row-major order. The stream is the contract; the host loop is not.
 */

#ifndef AVSCOPE_PERCEPTION_COSTMAP_HH
#define AVSCOPE_PERCEPTION_COSTMAP_HH

#include "geom/pose.hh"
#include "perception/objects.hh"
#include "pointcloud/cloud.hh"
#include "uarch/profiler.hh"

namespace av::perception {

/** Grid geometry (Autoware defaults: 60x60 m around the ego). */
struct CostmapConfig
{
    double sizeX = 60.0;      ///< meters
    double sizeY = 60.0;
    double resolution = 0.1;  ///< m/cell -> 600x600 cells
    double inflation = 0.6;   ///< obstacle inflation radius (m)
    double pathCost = 0.6;    ///< cost of predicted-path cells
    double objectCost = 1.0;
    /** Point-layer inflation is finer (single LiDAR returns). */
    double pointInflation = 0.33;
};

/**
 * Rasterize predicted objects (footprints + predicted paths).
 * @param ego grid is centered on this pose
 */
Costmap generateObjectCostmap(const ObjectList &objects,
                              const geom::Pose2 &ego,
                              const CostmapConfig &config,
                              uarch::KernelProfiler prof =
                                  uarch::KernelProfiler());

/**
 * Rasterize the obstacle cloud (vehicle-frame points).
 */
Costmap generatePointsCostmap(const pc::PointCloud &no_ground,
                              const geom::Pose2 &ego,
                              const CostmapConfig &config,
                              uarch::KernelProfiler prof =
                                  uarch::KernelProfiler());

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_COSTMAP_HH
