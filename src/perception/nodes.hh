/**
 * @file
 * The Autoware-equivalent perception nodes (Table I of the paper),
 * each wiring one algorithm into the middleware + machine:
 * subscriptions, functional execution, simulated cost, publication.
 *
 * Topic names follow the paper's Table IV.
 */

#ifndef AVSCOPE_PERCEPTION_NODES_HH
#define AVSCOPE_PERCEPTION_NODES_HH

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>

#include "dnn/cost.hh"
#include "dnn/network.hh"
#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/imm_ukf_pda.hh"
#include "perception/invocation_memo.hh"
#include "perception/ndt.hh"
#include "perception/node_base.hh"
#include "perception/objects.hh"
#include "perception/ray_ground_filter.hh"
#include "perception/vision_model.hh"
#include "pointcloud/voxel_grid.hh"
#include "sim/periodic.hh"
#include "world/sensors.hh"

namespace av::perception {

/** Internal topic names (paper Table IV spelling). */
namespace topics {
inline constexpr const char *filteredPoints = "/filtered_points";
inline constexpr const char *ndtPose = "/ndt_pose";
inline constexpr const char *pointsNoGround = "/points_no_ground";
inline constexpr const char *pointsGround = "/points_ground";
inline constexpr const char *lidarObjects =
    "/detection/lidar_detector/objects";
inline constexpr const char *imageObjects =
    "/detection/image_detector/objects";
inline constexpr const char *fusedObjects =
    "/detection/fusion_tools/objects";
inline constexpr const char *trackedObjects =
    "/detection/object_tracker/objects";
inline constexpr const char *objects = "/detection/objects";
inline constexpr const char *predictedObjects =
    "/prediction/motion_predictor/objects";
inline constexpr const char *costmap = "/semantics/costmap";
/** The inter-node topics every staleness watcher samples (the
 *  staleness probe and the safety monitor's liveness check), in
 *  report order. */
inline constexpr const char *watched[] = {
    ndtPose,        lidarObjects, imageObjects, fusedObjects,
    trackedObjects, objects,      costmap};
} // namespace topics

// ------------------------------------------------- shared front end
//
// What one invocation of each LiDAR front-end node computes, as its
// drive's InvocationMemo stores it (DESIGN.md §10): the node's
// measure() result, a pure function of the node's input key and its
// NodeArchState.

/** What one euclidean_cluster invocation computes from its cloud. */
struct ClusterInvocation
{
    std::vector<Cluster> clusters; ///< vehicle frame
    std::size_t croppedPoints = 0; ///< sizes the GPU job
};

/**
 * ndt_matching's input key: the filtered scan, named by its LiDAR
 * stamp, and the exact bits of the initial guess. align() is a pure
 * function of the cloud, the guess and the drive's map.
 */
struct NdtInput
{
    sim::Tick lidar = 0;
    std::uint64_t x = 0, y = 0, yaw = 0; ///< the guess's bit patterns

    auto operator<=>(const NdtInput &) const = default;
};

/** The nodes fed by one scan key on its `origins.lidar` stamp. */
using RayGroundMemo = InvocationMemo<Measured<GroundIndices>, sim::Tick>;
using VoxelGridMemo = InvocationMemo<Measured<pc::PointCloud>, sim::Tick>;
using NdtMemo = InvocationMemo<Measured<NdtResult>, NdtInput>;
using ClusterMemo = InvocationMemo<Measured<ClusterInvocation>, sim::Tick>;

/** One drive's memos; a null memo leaves its node computing live. */
struct FrontEndMemos
{
    std::shared_ptr<RayGroundMemo> rayGround;
    std::shared_ptr<VoxelGridMemo> voxelGrid;
    std::shared_ptr<NdtMemo> ndt;
    std::shared_ptr<ClusterMemo> cluster;
};

/**
 * voxel_grid_filter: downsample /points_raw -> /filtered_points.
 */
class VoxelGridFilterNode : public PerceptionNode
{
  public:
    /**
     * @param memo the drive's shared invocations (see
     *             InvocationMemo); null computes every one live
     */
    VoxelGridFilterNode(ros::RosGraph &graph, const NodeConfig &config,
                        std::shared_ptr<VoxelGridMemo> memo = nullptr);

  private:
    VoxelGridMemo::Cursor memo_;
    ros::Publisher<pc::PointCloud> pub_;
};

/**
 * ndt_matching: localize /filtered_points against the map ->
 * /ndt_pose. Initializes from the first GNSS fix plus the
 * operator-provided initial heading (Autoware's rviz initial pose).
 */
class NdtMatchingNode : public PerceptionNode
{
  public:
    /**
     * @param initial_pose operator-provided initial pose (Autoware's
     *        rviz "2D Pose Estimate"); when absent, initialization
     *        falls back to the first GNSS fix with yaw 0
     * @param degraded after a localization gap longer than
     *        kReseedAfter, the next alignment reseeds its guess from
     *        the latest GNSS fix instead of dead-reckoning a stale
     *        pose (false — the seed-default behaviour — never does)
     * @param memo the drive's shared alignments against @p map;
     *        null aligns live
     */
    NdtMatchingNode(ros::RosGraph &graph, const NodeConfig &config,
                    const pc::PointCloud &map,
                    std::optional<geom::Pose2> initial_pose,
                    bool degraded,
                    std::shared_ptr<NdtMemo> memo = nullptr);

    /** Localization gap that triggers a GNSS reseed (degraded). */
    static constexpr sim::Tick kReseedAfter = 500 * sim::oneMs;

    /** Latest pose estimate (for tests / examples). */
    const std::optional<PoseEstimate> &lastPose() const
    {
        return lastPose_;
    }

    /** GNSS reseeds performed after localization dropouts. */
    std::uint64_t reseedCount() const { return reseeds_; }

  private:
    NdtMatcher matcher_;
    std::optional<geom::Pose2> initialPose_;
    std::optional<geom::Vec3> gnssInit_;
    std::optional<PoseEstimate> lastPose_;
    geom::Vec2 velocity_;
    double yawRate_ = 0.0;
    /** Latest IMU/odometry sample (paper SII-A: the IMU anticipates
     *  where subsequent positions are likely to be). */
    std::optional<world::ImuSample> imu_;
    sim::Tick lastStamp_ = 0;
    bool degraded_ = false;
    std::optional<geom::Vec3> lastGnss_;
    std::uint64_t reseeds_ = 0;
    NdtMemo::Cursor memo_;
    ros::Publisher<PoseEstimate> pub_;
};

/**
 * ray_ground_filter: /points_raw -> /points_no_ground (+ ground).
 */
class RayGroundFilterNode : public PerceptionNode
{
  public:
    /**
     * @param memo the drive's shared invocations (see
     *             InvocationMemo); null computes every one live
     */
    RayGroundFilterNode(ros::RosGraph &graph, const NodeConfig &config,
                        std::shared_ptr<RayGroundMemo> memo = nullptr);

  private:
    RayGroundMemo::Cursor memo_;
    ros::Publisher<pc::PointCloud> pubNoGround_;
    ros::Publisher<pc::PointCloud> pubGround_;
};

/**
 * euclidean_cluster: /points_no_ground -> LiDAR objects, with the
 * GPU-accelerated nearest-neighbour stage of Autoware's
 * lidar_euclidean_cluster_detect.
 */
class EuclideanClusterNode : public PerceptionNode
{
  public:
    /**
     * @param memo the drive's shared invocations (see
     *             InvocationMemo); null computes every one live
     */
    EuclideanClusterNode(ros::RosGraph &graph, const NodeConfig &config,
                         std::shared_ptr<ClusterMemo> memo = nullptr);

  private:
    std::optional<PoseEstimate> pose_;
    ClusterMemo::Cursor memo_;
    ros::Publisher<ObjectList> pub_;
};

/**
 * vision_detection: /image_raw -> image objects. CPU preprocess,
 * GPU inference (layer kernels), CPU postprocess (the SSD sort).
 */
class VisionDetectorNode : public PerceptionNode
{
  public:
    VisionDetectorNode(ros::RosGraph &graph, const NodeConfig &config,
                       DetectorKind kind,
                       const dnn::GpuCostParams &gpu_params);

    DetectorKind kind() const { return kind_; }
    const dnn::NetworkSpec &network() const { return network_; }

  private:
    DetectorKind kind_;
    dnn::NetworkSpec network_;
    std::vector<hw::GpuKernel> kernels_;
    util::Rng rng_;
    ros::Publisher<ObjectList> pub_;
};

/**
 * range_vision_fusion: LiDAR objects (trigger) + cached image
 * objects -> fused objects carrying both sensor origins.
 */
class RangeVisionFusionNode : public PerceptionNode
{
  public:
    /**
     * @param degraded a LiDAR cluster list arriving while the
     *        newest image objects are older than kVisionStaleAfter
     *        triggers a LiDAR-only publication instead of waiting
     *        for vision — the fusion keeps the tracker fed through a
     *        camera outage
     */
    RangeVisionFusionNode(ros::RosGraph &graph,
                          const NodeConfig &config, bool degraded);

    /** Vision age beyond which fusion goes LiDAR-only (degraded). */
    static constexpr sim::Tick kVisionStaleAfter = 300 * sim::oneMs;

    /** LiDAR-only fallback publications (vision stale). */
    std::uint64_t lidarOnlyCount() const { return lidarOnly_; }

  private:
    std::optional<ros::Stamped<ObjectList>> lastLidar_;
    std::optional<PoseEstimate> pose_;
    bool degraded_ = false;
    sim::Tick lastVisionStamp_ = 0;
    bool sawVision_ = false;
    std::uint64_t lidarOnly_ = 0;
    ros::Publisher<ObjectList> pub_;
};

/**
 * imm_ukf_pda_tracker: fused objects -> tracked objects.
 */
class ImmUkfPdaNode : public PerceptionNode
{
  public:
    /**
     * @param degraded a periodic check (every kCoastPeriod)
     *        publishes predict-only track estimates whenever no
     *        fused detections arrived for longer than kCoastAfter —
     *        the tracker coasts through detection gaps instead of
     *        going silent
     */
    ImmUkfPdaNode(ros::RosGraph &graph, const NodeConfig &config,
                  bool degraded);

    /** Fused-input age beyond which the tracker coasts... */
    static constexpr sim::Tick kCoastAfter = 250 * sim::oneMs;
    /** ...checked on this period (degraded only). */
    static constexpr sim::Tick kCoastPeriod = 100 * sim::oneMs;

    const ImmUkfPdaTracker &tracker() const { return tracker_; }

    /** Coast publications through detection gaps. */
    std::uint64_t coastCount() const { return coasts_; }

  private:
    void maybeCoast();

    ImmUkfPdaTracker tracker_;
    sim::Tick lastFusedStamp_ = 0;
    bool sawFused_ = false;
    std::uint64_t coasts_ = 0;
    ros::Origins lastOrigins_;
    std::optional<sim::PeriodicTask> coastTask_;
    ros::Publisher<ObjectList> pub_;
};

/**
 * ukf_track_relay: republishes tracked objects on /detection/objects
 * (present in the paper's computation paths; adds one transport
 * hop).
 */
class TrackRelayNode : public PerceptionNode
{
  public:
    TrackRelayNode(ros::RosGraph &graph, const NodeConfig &config);

  private:
    ros::Publisher<ObjectList> pub_;
};

/**
 * naive_motion_predict: tracked objects -> objects with predicted
 * paths.
 */
class NaiveMotionPredictNode : public PerceptionNode
{
  public:
    NaiveMotionPredictNode(ros::RosGraph &graph, const NodeConfig &config);

  private:
    ros::Publisher<ObjectList> pub_;
};

/**
 * costmap_generator: two callbacks, profiled separately as the
 * paper does (costmap_generator_obj / costmap_generator_points —
 * the latency rows split by trigger topic).
 */
class CostmapGeneratorNode : public PerceptionNode
{
  public:
    CostmapGeneratorNode(ros::RosGraph &graph, const NodeConfig &config);

  private:
    std::optional<PoseEstimate> pose_;
    ros::Publisher<Costmap> pub_;
};

} // namespace av::perception

#endif // AVSCOPE_PERCEPTION_NODES_HH
