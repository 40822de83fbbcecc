/**
 * @file
 * The traced pass's kernel replay: every perception algorithm the
 * stack runs, called directly through its public entry point on the
 * recorded sensor frames, in pipeline order. Each call is one span,
 * so per-kernel host time is measured from outside the program.
 *
 * The calls mirror the stack's node callbacks (src/perception/
 * nodes.cc): one µarch state per node, built from the calibration,
 * wraps each invocation the way PerceptionNode::beginWork() and
 * finishWork() do. Unlike the replay, every frame is processed (no
 * queue drops), so kernel time can exceed the replay's share of it.
 */

#include <optional>
#include <stdexcept>

#include "dnn/network.hh"
#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/fusion.hh"
#include "perception/imm_ukf_pda.hh"
#include "perception/motion_predict.hh"
#include "perception/ndt.hh"
#include "perception/ray_ground_filter.hh"
#include "perception/vision_model.hh"
#include "pointcloud/voxel_grid.hh"
#include "stack/config.hh"
#include "workload.hh"
#include "world/recorder.hh"

namespace avperf {

namespace {

using namespace av;

/** One stack node's µarch state, or none when detached. */
class NodeState
{
  public:
    NodeState(const perception::NodeConfig &config, bool attached)
    {
        if (!attached)
            return;
        arch_.emplace(config.cache, config.branch, config.pipeline,
                      config.tracePeriod);
        arch_->setOpScale(config.workScale);
    }

    /** Run @p body as one timed, profiled invocation. */
    template <typename F>
    auto
    invoke(SpanRecorder &spans, const std::string &name, F &&body)
    {
        Scope span(spans, name);
        if (!arch_)
            return body(uarch::KernelProfiler());
        arch_->beginInvocation();
        auto out = body(uarch::KernelProfiler(&*arch_));
        arch_->endInvocation();
        return out;
    }

  private:
    std::optional<uarch::NodeArchState> arch_;
};

template <typename T>
const std::vector<ros::Stamped<T>> &
channelOf(const ros::Bag &bag, const std::string &name)
{
    for (const ros::BagChannelBase *channel : bag.channels()) {
        if (channel->name() != name)
            continue;
        if (const auto *typed =
                dynamic_cast<const ros::BagChannel<T> *>(channel))
            return typed->messages();
    }
    throw std::runtime_error("drive has no channel " + name);
}

dnn::NetworkSpec
networkFor(perception::DetectorKind kind)
{
    switch (kind) {
    case perception::DetectorKind::Ssd512:
        return dnn::buildSsd512();
    case perception::DetectorKind::Ssd300:
        return dnn::buildSsd300();
    case perception::DetectorKind::Yolov3:
        break;
    }
    return dnn::buildYolov3_416();
}

} // namespace

const std::vector<std::string> &
kernelNames()
{
    static const std::vector<std::string> names = {
        "pointcloud.voxel_grid",      "perception.ndt_align",
        "perception.ray_ground",      "perception.cluster",
        "perception.fusion",          "perception.tracker",
        "perception.motion_predict",  "perception.costmap_points",
        "perception.costmap_objects", "dnn.dnn_preprocess",
        "dnn.dnn_postprocess"};
    return names;
}

void
runKernelPass(const prof::DriveData &drive,
              const stack::StackOptions &stack, bool attached,
              SpanRecorder &spans)
{
    const std::string suffix = attached ? "" : ".detached";
    const auto name = [&suffix](const char *kernel) {
        return std::string(kernel) + suffix;
    };
    const stack::NodeCalibration cal = stack::defaultCalibration();
    NodeState voxel(cal.voxelGridFilter, attached);
    NodeState ndt(cal.ndtMatching, attached);
    NodeState ground(cal.rayGroundFilter, attached);
    NodeState cluster(cal.euclideanCluster, attached);
    NodeState vision(cal.visionDetector, attached);
    NodeState fusion(cal.rangeVisionFusion, attached);
    NodeState tracker_state(cal.immUkfPda, attached);
    NodeState predict(cal.naiveMotionPredict, attached);
    NodeState costmap(cal.costmapGenerator, attached);

    perception::NdtMatcher matcher;
    if (stack.enableLocalization)
        matcher.setMap(drive.map);
    perception::ImmUkfPdaTracker tracker;
    const dnn::NetworkSpec network = networkFor(stack.detector);
    util::Rng post_rng(0xde7ec7 ^
                       static_cast<std::uint64_t>(stack.detector));
    const perception::ClusterConfig cluster_cfg;
    const perception::CostmapConfig costmap_cfg;

    const auto &scans =
        channelOf<pc::PointCloud>(drive.bag, world::topics::pointsRaw);
    const auto &frames = channelOf<world::CameraFrame>(
        drive.bag, world::topics::imageRaw);

    // Ego pose from NDT, dead-reckoned forward as the next guess.
    geom::Pose2 ego = drive.initialPose;
    geom::Vec2 velocity;
    double yaw_rate = 0.0;
    sim::Tick last_stamp = 0;
    bool localized = false;
    perception::ObjectList lidar_objects;

    std::size_t s = 0, f = 0;
    while (s < scans.size() || f < frames.size()) {
        const bool lidar =
            f == frames.size() ||
            (s < scans.size() &&
             scans[s].header.stamp <= frames[f].header.stamp);
        if (lidar) {
            const ros::Stamped<pc::PointCloud> &scan = scans[s++];
            const sim::Tick t = scan.header.stamp;
            if (stack.enableLocalization) {
                const pc::PointCloud filtered = voxel.invoke(
                    spans, name("pointcloud.voxel_grid"), [&](auto p) {
                        return pc::voxelGridDownsample(scan.data, 1.5,
                                                       p);
                    });
                const double dt = sim::ticksToSeconds(t - last_stamp);
                geom::Pose2 guess = ego;
                if (localized) {
                    guess.p = ego.p + velocity * dt;
                    guess.yaw = geom::normalizeAngle(ego.yaw +
                                                     yaw_rate * dt);
                }
                const perception::NdtResult aligned = ndt.invoke(
                    spans, name("perception.ndt_align"), [&](auto p) {
                        return matcher.align(filtered, guess, p);
                    });
                if (localized && dt > 1e-3) {
                    velocity = (aligned.pose.p - ego.p) / dt;
                    yaw_rate = geom::normalizeAngle(aligned.pose.yaw -
                                                    ego.yaw) /
                               dt;
                }
                ego = aligned.pose;
                last_stamp = t;
                localized = true;
            }
            if (!stack.enableLidarDetection)
                continue;
            const perception::GroundSplit split = ground.invoke(
                spans, name("perception.ray_ground"), [&](auto p) {
                    return perception::rayGroundFilter(
                        scan.data, perception::RayGroundConfig(), p);
                });
            const auto clusters = cluster.invoke(
                spans, name("perception.cluster"), [&](auto p) {
                    return perception::euclideanCluster(
                        perception::cropForClustering(split.noGround,
                                                      cluster_cfg, p),
                        cluster_cfg, p);
                });
            lidar_objects.objects.clear();
            for (const perception::Cluster &cl : clusters) {
                perception::DetectedObject obj;
                obj.confidence = 0.5;
                obj.position =
                    ego.apply({cl.centroid.x, cl.centroid.y});
                obj.yaw = geom::normalizeAngle(cl.yaw + ego.yaw);
                obj.length = cl.length;
                obj.width = cl.width;
                obj.height = cl.height;
                obj.pointCount = cl.pointCount;
                lidar_objects.objects.push_back(obj);
            }
            if (stack.enableCostmap) {
                costmap.invoke(
                    spans, name("perception.costmap_points"),
                    [&](auto p) {
                        return perception::generatePointsCostmap(
                            split.noGround, ego, costmap_cfg, p);
                    });
            }
            continue;
        }

        const ros::Stamped<world::CameraFrame> &frame = frames[f++];
        if (!stack.enableVision)
            continue;
        const perception::ObjectList detections =
            perception::detectObjects(frame.data, frame.header.stamp,
                                      stack.detector);
        vision.invoke(spans, name("dnn.dnn_preprocess"), [&](auto p) {
            return dnn::preprocessFrame(network, frame.data.width,
                                        frame.data.height, p);
        });
        vision.invoke(spans, name("dnn.dnn_postprocess"), [&](auto p) {
            return dnn::postprocessFrame(network, post_rng, p);
        });
        if (!stack.enableTracking)
            continue;
        const perception::ObjectList fused = fusion.invoke(
            spans, name("perception.fusion"), [&](auto p) {
                return perception::fuseObjects(
                    lidar_objects, detections, ego,
                    perception::FusionConfig(), p);
            });
        const perception::ObjectList tracked = tracker_state.invoke(
            spans, name("perception.tracker"), [&](auto p) {
                return tracker.update(fused, frame.header.stamp, p);
            });
        const perception::ObjectList predicted = predict.invoke(
            spans, name("perception.motion_predict"), [&](auto p) {
                return perception::predictMotion(
                    tracked, perception::PredictConfig(), p);
            });
        if (stack.enableCostmap)
            costmap.invoke(spans, name("perception.costmap_objects"),
                           [&](auto p) {
                               return perception::generateObjectCostmap(
                                   predicted, ego, costmap_cfg, p);
                           });
    }
}

} // namespace avperf
