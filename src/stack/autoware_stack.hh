/**
 * @file
 * The assembled stack: every perception node of the paper's Fig. 1
 * wired per Table IV, on one machine, with a selectable vision
 * detector. Also supports the isolation mode of the paper's Fig. 8
 * (run the detector alone against the same bag).
 */

#ifndef AVSCOPE_STACK_AUTOWARE_STACK_HH
#define AVSCOPE_STACK_AUTOWARE_STACK_HH

#include <memory>
#include <vector>

#include "perception/nodes.hh"
#include "ros/ros.hh"
#include "stack/config.hh"
#include "util/hash.hh"

namespace av::stack {

/** Which parts of the stack to launch. */
struct StackOptions
{
    perception::DetectorKind detector =
        perception::DetectorKind::Ssd512;
    bool enableVision = true;
    bool enableLocalization = true;  ///< voxel filter + NDT
    bool enableLidarDetection = true;///< ray ground + clustering
    bool enableTracking = true;      ///< fusion + tracker + predict
    bool enableCostmap = true;
    /**
     * Graceful degradation: LiDAR-only fusion, tracker coasting and
     * NDT reseeding (each node's thresholds are its own constants).
     * Default-off so the seed behaviour — and every calibrated
     * finding — reproduces unchanged; fault studies opt in.
     */
    bool degraded = false;
};

void
fields(auto &&ar, util::MaybeConst<StackOptions> auto &c)
{
    auto &[detector, enableVision, enableLocalization,
           enableLidarDetection, enableTracking, enableCostmap,
           degraded] = c;
    ar(detector, enableVision, enableLocalization, enableLidarDetection,
       enableTracking, enableCostmap, degraded);
}

/**
 * Owns the node graph.
 */
class AutowareStack
{
  public:
    /**
     * @param graph middleware bound to the machine under test
     * @param map   point-cloud map for NDT (ndt_mapping output)
     * @param initial_pose operator-provided initial pose for NDT
     * @param memos the LiDAR front end's shared invocations; a null
     *              memo leaves its node computing live
     *
     * Every node runs with its defaultCalibration() parameters.
     */
    AutowareStack(ros::RosGraph &graph, const pc::PointCloud &map,
                  const StackOptions &options = StackOptions(),
                  std::optional<geom::Pose2> initial_pose = {},
                  const perception::FrontEndMemos &memos = {});

    ~AutowareStack();

    /** All live perception nodes (probe attachment). */
    const std::vector<perception::PerceptionNode *> &nodes() const
    {
        return all_;
    }

    /** Node lookup by ros name; nullptr when absent/disabled. */
    perception::PerceptionNode *find(const std::string &name) const;

    const StackOptions &options() const { return options_; }

    perception::VisionDetectorNode *vision() const
    {
        return vision_.get();
    }
    perception::NdtMatchingNode *ndt() const { return ndt_.get(); }
    perception::CostmapGeneratorNode *costmap() const
    {
        return costmap_.get();
    }
    perception::ImmUkfPdaNode *trackerNode() const
    {
        return tracker_.get();
    }
    perception::RangeVisionFusionNode *fusion() const
    {
        return fusion_.get();
    }

  private:
    StackOptions options_;
    std::unique_ptr<perception::VoxelGridFilterNode> voxel_;
    std::unique_ptr<perception::NdtMatchingNode> ndt_;
    std::unique_ptr<perception::RayGroundFilterNode> rayGround_;
    std::unique_ptr<perception::EuclideanClusterNode> cluster_;
    std::unique_ptr<perception::VisionDetectorNode> vision_;
    std::unique_ptr<perception::RangeVisionFusionNode> fusion_;
    std::unique_ptr<perception::ImmUkfPdaNode> tracker_;
    std::unique_ptr<perception::TrackRelayNode> relay_;
    std::unique_ptr<perception::NaiveMotionPredictNode> predict_;
    std::unique_ptr<perception::CostmapGeneratorNode> costmap_;
    std::vector<perception::PerceptionNode *> all_;
};

} // namespace av::stack

#endif // AVSCOPE_STACK_AUTOWARE_STACK_HH
