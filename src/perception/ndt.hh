/**
 * @file
 * Normal Distributions Transform scan matching (Magnusson's P2D
 * formulation), the algorithm inside Autoware's ndt_matching node.
 *
 * The map is summarized as per-voxel Gaussians
 * (pc::GaussianVoxelGrid); alignment maximizes the sum of Gaussian
 * likelihoods of the transformed scan points by Newton iterations.
 * Our world is planar, so the pose is optimized over (x, y, yaw);
 * the score itself is evaluated in full 3-D against the 3-D voxel
 * statistics. Instrumented: the per-point voxel lookups are the
 * tree-like PCL data-structure traffic the paper traces >90% of
 * ndt_matching's CPU time to (§IV-C).
 */

#ifndef AVSCOPE_PERCEPTION_NDT_HH
#define AVSCOPE_PERCEPTION_NDT_HH

#include "geom/pose.hh"
#include "pointcloud/cloud.hh"
#include "pointcloud/voxel_grid.hh"
#include "uarch/profiler.hh"

namespace av::perception {

/** NDT optimization parameters (Autoware defaults where they
 *  exist). */
struct NdtConfig
{
    double voxelLeaf = 2.0;      ///< map voxel size (m)
    std::uint32_t maxIterations = 8;
    double translationEps = 0.01; ///< convergence threshold (m)
    double rotationEps = 0.001;   ///< radians
    double outlierRatio = 0.55;
    double maxStepXy = 0.5;       ///< Newton step clamp (m)
    double maxStepYaw = 0.1;      ///< radians
};

/** Alignment outcome. */
struct NdtResult
{
    geom::Pose2 pose;
    double score = 0.0;       ///< higher is better
    double fitness = 0.0;     ///< score per matched point
    std::uint32_t iterations = 0;
    std::uint32_t matchedPoints = 0;
    bool converged = false;
};

/**
 * The matcher. setMap() once, align() per scan.
 */
class NdtMatcher
{
  public:
    explicit NdtMatcher(const NdtConfig &config = NdtConfig())
        : config_(config)
    {}

    /** Build the Gaussian voxel map from a world-frame cloud. */
    void setMap(const pc::PointCloud &map,
                uarch::KernelProfiler prof = uarch::KernelProfiler());

    bool hasMap() const { return grid_.voxelCount() > 0; }

    /**
     * Align @p source (vehicle frame, z above ground) to the map,
     * starting from @p guess.
     */
    NdtResult align(const pc::PointCloud &source,
                    const geom::Pose2 &guess,
                    uarch::KernelProfiler prof =
                        uarch::KernelProfiler()) const;

    /**
     * Evaluate the NDT score of @p source at @p pose without
     * optimizing (used by tests and the fitness probe).
     */
    double score(const pc::PointCloud &source, const geom::Pose2 &pose,
                 uarch::KernelProfiler prof =
                     uarch::KernelProfiler()) const;

    const NdtConfig &config() const { return config_; }

  private:
    NdtConfig config_;
    pc::GaussianVoxelGrid grid_;
    double d1_ = 1.0, d2_ = 1.0; ///< Magnusson's mixture constants

    void computeConstants();
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_NDT_HH
