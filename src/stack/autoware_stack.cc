#include "stack/autoware_stack.hh"

#include <utility>

namespace av::stack {

AutowareStack::AutowareStack(ros::RosGraph &graph,
                             const pc::PointCloud &map,
                             const StackOptions &options,
                             std::optional<geom::Pose2> initial_pose,
                             const perception::FrontEndMemos &memos)
    : options_(options)
{
    using namespace perception;
    const NodeCalibration calibration = defaultCalibration();

    if (options.enableLocalization) {
        voxel_ = std::make_unique<VoxelGridFilterNode>(
            graph, calibration.voxelGridFilter, memos.voxelGrid);
        ndt_ = std::make_unique<NdtMatchingNode>(
            graph, calibration.ndtMatching, map, initial_pose,
            options.degraded, memos.ndt);
    }
    if (options.enableLidarDetection) {
        rayGround_ = std::make_unique<RayGroundFilterNode>(
            graph, calibration.rayGroundFilter, memos.rayGround);
        cluster_ = std::make_unique<EuclideanClusterNode>(
            graph, calibration.euclideanCluster, memos.cluster);
    }
    if (options.enableVision) {
        vision_ = std::make_unique<VisionDetectorNode>(
            graph, calibration.visionDetector, options.detector,
            gpuParamsFor(options.detector));
    }
    if (options.enableTracking) {
        fusion_ = std::make_unique<RangeVisionFusionNode>(
            graph, calibration.rangeVisionFusion, options.degraded);
        tracker_ = std::make_unique<ImmUkfPdaNode>(
            graph, calibration.immUkfPda, options.degraded);
        relay_ = std::make_unique<TrackRelayNode>(
            graph, calibration.trackRelay);
        predict_ = std::make_unique<NaiveMotionPredictNode>(
            graph, calibration.naiveMotionPredict);
    }
    if (options.enableCostmap) {
        costmap_ = std::make_unique<CostmapGeneratorNode>(
            graph, calibration.costmapGenerator);
    }

    const auto collect = [this](PerceptionNode *node) {
        if (node)
            all_.push_back(node);
    };
    collect(voxel_.get());
    collect(ndt_.get());
    collect(rayGround_.get());
    collect(cluster_.get());
    collect(vision_.get());
    collect(fusion_.get());
    collect(tracker_.get());
    collect(relay_.get());
    collect(predict_.get());
    collect(costmap_.get());
}

AutowareStack::~AutowareStack() = default;

perception::PerceptionNode *
AutowareStack::find(const std::string &name) const
{
    for (perception::PerceptionNode *node : all_) {
        if (node->name() == name)
            return node;
    }
    return nullptr;
}

} // namespace av::stack
