#include "perception/nodes.hh"

#include <bit>
#include <cmath>

#include "perception/euclidean_cluster.hh"
#include "perception/fusion.hh"
#include "perception/motion_predict.hh"
#include "perception/ray_ground_filter.hh"
#include "util/logging.hh"
#include "world/recorder.hh"

namespace av::perception {

namespace {

/**
 * A retire callback publishing @p msg on @p pub at its serialized
 * size. The payload is shared so the callback copies cheaply.
 */
template <typename T>
auto
publishing(ros::Publisher<T> &pub, ros::Header header, T msg)
{
    return [&pub, header = std::move(header),
            msg = std::make_shared<T>(std::move(msg))] {
        const std::size_t bytes = msg->byteSize();
        pub.publish(header, std::move(*msg), bytes);
    };
}

/** The ego pose @p pose estimates; the origin before the first. */
geom::Pose2
egoPose(const std::optional<PoseEstimate> &pose)
{
    return pose ? geom::Pose2{pose->position, pose->yaw} : geom::Pose2{};
}

/** Every node runs its algorithm at the config type's defaults. */
constexpr double kVoxelLeaf = 1.5;
constexpr RayGroundConfig kRayGround{};
constexpr ClusterConfig kCluster{};
constexpr FusionConfig kFusion{};
constexpr PredictConfig kPredict{};
constexpr CostmapConfig kCostmap{};

} // namespace

// ---------------------------------------------------------------- voxel

VoxelGridFilterNode::VoxelGridFilterNode(
    ros::RosGraph &graph, const NodeConfig &config,
    std::shared_ptr<VoxelGridMemo> memo)
    : PerceptionNode(graph, "voxel_grid_filter", config),
      memo_(std::move(memo)),
      pub_(graph.advertise<pc::PointCloud>(topics::filteredPoints, name()))
{
    subscribe<pc::PointCloud>(
        world::topics::pointsRaw, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            const auto out =
                memo_.invoke(arch(), msg.header.origins.lidar, [&] {
                    return measure([&](uarch::KernelProfiler prof) {
                        return pc::voxelGridDownsample(msg.data,
                                                       kVoxelLeaf, prof);
                    });
                });
            dispatch(out->cost,
                     [this, out, header = deriveHeader(msg.header)] {
                         // The entry may be shared: publish a copy.
                         pub_.publish(header, out->value,
                                      out->value.byteSize());
                     },
                     std::move(done));
        });
}

// ------------------------------------------------------------------ ndt

NdtMatchingNode::NdtMatchingNode(ros::RosGraph &graph,
                                 const NodeConfig &config,
                                 const pc::PointCloud &map,
                                 std::optional<geom::Pose2> initial_pose,
                                 bool degraded,
                                 std::shared_ptr<NdtMemo> memo)
    : PerceptionNode(graph, "ndt_matching", config),
      initialPose_(initial_pose), degraded_(degraded),
      memo_(std::move(memo)),
      pub_(graph.advertise<PoseEstimate>(topics::ndtPose, name()))
{
    matcher_.setMap(map);

    subscribe<world::GnssFix>(
        world::topics::gnss, 1,
        [this](const ros::Stamped<world::GnssFix> &msg,
               std::function<void()> done) {
            if (!gnssInit_)
                gnssInit_ = msg.data.position;
            lastGnss_ = msg.data.position;
            done();
        });

    subscribe<world::ImuSample>(
        world::topics::imu, 10,
        [this](const ros::Stamped<world::ImuSample> &msg,
               std::function<void()> done) {
            imu_ = msg.data;
            done();
        });

    subscribe<pc::PointCloud>(
        topics::filteredPoints, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            if (!lastPose_ && !gnssInit_ && !initialPose_) {
                done(); // cannot localize before the first fix
                return;
            }
            // Initial guess. Preferred: dead-reckon the previous
            // estimate with IMU/odometry (speed + yaw rate); the
            // street corridor is longitudinally weakly observable,
            // so NDT needs a guess within its narrow basin (paper
            // SII-A: the IMU anticipates the next position).
            geom::Pose2 guess;
            const bool reseed =
                degraded_ && lastPose_ && lastGnss_ &&
                msg.header.stamp - lastStamp_ > kReseedAfter;
            if (reseed) {
                // Localization dropout: a dead-reckoned guess this
                // old is outside NDT's convergence basin. Reseed the
                // translation from GNSS, keep the last good heading,
                // and forget the stale velocity estimate.
                guess.p = {lastGnss_->x, lastGnss_->y};
                guess.yaw = lastPose_->yaw;
                velocity_ = {};
                yawRate_ = 0.0;
                ++reseeds_;
            } else if (lastPose_ && imu_) {
                const double dt = sim::ticksToSeconds(
                    msg.header.stamp - lastStamp_);
                const double yaw = geom::normalizeAngle(
                    lastPose_->yaw + imu_->yawRate * dt);
                guess.yaw = yaw;
                guess.p = lastPose_->position +
                          geom::Vec2{std::cos(yaw), std::sin(yaw)} *
                              (imu_->speed * dt);
            } else if (lastPose_) {
                const double dt = sim::ticksToSeconds(
                    msg.header.stamp - lastStamp_);
                guess.p = lastPose_->position + velocity_ * dt;
                guess.yaw = geom::normalizeAngle(
                    lastPose_->yaw + yawRate_ * dt);
            } else if (initialPose_) {
                guess = *initialPose_;
            } else {
                guess.p = {gnssInit_->x, gnssInit_->y};
                guess.yaw = 0.0;
            }

            const NdtInput key{msg.header.origins.lidar,
                               std::bit_cast<std::uint64_t>(guess.p.x),
                               std::bit_cast<std::uint64_t>(guess.p.y),
                               std::bit_cast<std::uint64_t>(guess.yaw)};
            const auto aligned = memo_.invoke(arch(), key, [&] {
                return measure([&](uarch::KernelProfiler prof) {
                    return matcher_.align(msg.data, guess, prof);
                });
            });
            const NdtResult &result = aligned->value;
            util::debug("[ndt] t=",
                        sim::ticksToSeconds(msg.header.stamp),
                        " imu=", imu_.has_value(), " guess=(",
                        guess.p.x, ",", guess.p.y, ",", guess.yaw,
                        ") est=(", result.pose.p.x, ",",
                        result.pose.p.y, ",", result.pose.yaw,
                        ") it=", result.iterations, " conv=",
                        result.converged, " fit=", result.fitness,
                        " n=", msg.data.size());

            PoseEstimate estimate;
            estimate.position = result.pose.p;
            estimate.yaw = result.pose.yaw;
            estimate.fitnessScore = result.fitness;
            estimate.iterations = result.iterations;
            estimate.converged = result.converged;

            // Velocity bookkeeping for the next guess.
            if (lastPose_) {
                const double dt = sim::ticksToSeconds(
                    msg.header.stamp - lastStamp_);
                if (dt > 1e-3) {
                    velocity_ =
                        (estimate.position - lastPose_->position) /
                        dt;
                    yawRate_ = geom::normalizeAngle(
                                   estimate.yaw - lastPose_->yaw) /
                               dt;
                }
            }
            lastPose_ = estimate;
            lastStamp_ = msg.header.stamp;

            dispatch(aligned->cost,
                     [this, estimate, header = deriveHeader(msg.header)] {
                         pub_.publish(header, estimate, 96);
                     },
                     std::move(done));
        });
}

// ----------------------------------------------------------- ray ground

RayGroundFilterNode::RayGroundFilterNode(
    ros::RosGraph &graph, const NodeConfig &config,
    std::shared_ptr<RayGroundMemo> memo)
    : PerceptionNode(graph, "ray_ground_filter", config),
      memo_(std::move(memo)),
      pubNoGround_(
          graph.advertise<pc::PointCloud>(topics::pointsNoGround,
                                          name())),
      pubGround_(graph.advertise<pc::PointCloud>(topics::pointsGround,
                                                 name()))
{
    subscribe<pc::PointCloud>(
        world::topics::pointsRaw, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            const auto out =
                memo_.invoke(arch(), msg.header.origins.lidar, [&] {
                    return measure([&](uarch::KernelProfiler prof) {
                        return rayGroundIndices(msg.data, kRayGround,
                                                prof);
                    });
                });
            dispatch(out->cost,
                     [this, header = deriveHeader(msg.header),
                      split = std::make_shared<GroundSplit>(
                          out->value.gather(msg.data))] {
                         const std::size_t ngBytes =
                             split->noGround.byteSize();
                         const std::size_t gBytes =
                             split->ground.byteSize();
                         pubNoGround_.publish(
                             header, std::move(split->noGround), ngBytes);
                         pubGround_.publish(
                             header, std::move(split->ground), gBytes);
                     },
                     std::move(done));
        });
}

// -------------------------------------------------------------- cluster

EuclideanClusterNode::EuclideanClusterNode(
    ros::RosGraph &graph, const NodeConfig &config,
    std::shared_ptr<ClusterMemo> memo)
    : PerceptionNode(graph, "euclidean_cluster", config),
      memo_(std::move(memo)),
      pub_(graph.advertise<ObjectList>(topics::lidarObjects, name()))
{
    subscribe<PoseEstimate>(
        topics::ndtPose, 2,
        [this](const ros::Stamped<PoseEstimate> &msg,
               std::function<void()> done) {
            pose_ = msg.data;
            done();
        });

    subscribe<pc::PointCloud>(
        topics::pointsNoGround, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            const auto result =
                memo_.invoke(arch(), msg.header.origins.lidar, [&] {
                    return measure([&](uarch::KernelProfiler prof) {
                        const pc::PointCloud cropped =
                            cropForClustering(msg.data, kCluster, prof);
                        return ClusterInvocation{
                            euclideanCluster(cropped, kCluster, prof),
                            cropped.size()};
                    });
                });
            const std::vector<Cluster> &clusters = result->value.clusters;

            // Clusters are vehicle-frame; ground them in the world
            // with the latest localization estimate.
            const geom::Pose2 ego = egoPose(pose_);
            ObjectList list;
            for (const Cluster &cl : clusters) {
                DetectedObject obj;
                obj.label = Label::Unknown;
                obj.confidence = 0.5;
                obj.position =
                    ego.apply({cl.centroid.x, cl.centroid.y});
                obj.yaw =
                    geom::normalizeAngle(cl.yaw + ego.yaw);
                obj.length = cl.length;
                obj.width = cl.width;
                obj.height = cl.height;
                obj.pointCount = cl.pointCount;
                list.objects.push_back(std::move(obj));
            }

            // The CPU keeps the transforms and extraction, 50% of
            // the measured cost before the device and 45% after; the
            // neighbour search runs as two kernels on the device.
            const double n =
                static_cast<double>(result->value.croppedPoints);
            hw::GpuJob job;
            job.h2dBytes = n * 16.0;
            const double kflops = 1.1e10 * (n / 3000.0) + 5.0e8;
            job.kernels = {hw::GpuKernel{kflops, n * 64.0, 0.8},
                           hw::GpuKernel{kflops, n * 32.0, 0.8}};
            job.d2hBytes =
                64.0 * static_cast<double>(clusters.size()) +
                1024.0;

            auto pre = result->cost;
            pre.cycles *= 0.50;
            pre.dramBytes *= 0.50;
            auto post = result->cost;
            post.cycles *= 0.45;
            post.dramBytes *= 0.45;
            dispatch({pre, std::move(job), post},
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(list)),
                     std::move(done));
        });
}

// --------------------------------------------------------------- vision

VisionDetectorNode::VisionDetectorNode(
    ros::RosGraph &graph, const NodeConfig &config, DetectorKind kind,
    const dnn::GpuCostParams &gpu_params)
    : PerceptionNode(graph, "vision_detection", config), kind_(kind),
      network_(kind == DetectorKind::Ssd512
                   ? dnn::buildSsd512()
                   : (kind == DetectorKind::Ssd300
                          ? dnn::buildSsd300()
                          : dnn::buildYolov3_416())),
      kernels_(dnn::networkKernels(network_, gpu_params)),
      rng_(0xde7ec7 ^ static_cast<std::uint64_t>(kind)),
      pub_(graph.advertise<ObjectList>(topics::imageObjects, name()))
{
    subscribe<world::CameraFrame>(
        world::topics::imageRaw, 1,
        [this](const ros::Stamped<world::CameraFrame> &msg,
               std::function<void()> done) {
            // Functional detection (zero virtual time).
            ObjectList detections =
                detectObjects(msg.data, msg.header.stamp, kind_);

            // Costs: preprocess / inference / postprocess.
            const auto pre = measure([&](uarch::KernelProfiler prof) {
                return dnn::preprocessFrame(network_, msg.data.width,
                                            msg.data.height, prof);
            });
            const auto post = measure([&](uarch::KernelProfiler prof) {
                return dnn::postprocessFrame(network_, rng_, prof);
            });

            hw::GpuJob job;
            job.h2dBytes = dnn::networkH2dBytes(network_);
            job.kernels = kernels_;
            // Residual run-to-run inference jitter (clock/thermal
            // variation real GPUs show even on fixed input sizes).
            const double gpu_jitter = costJitter();
            for (hw::GpuKernel &k : job.kernels)
                k.flops *= gpu_jitter;
            job.d2hBytes = dnn::networkD2hBytes(network_);
            dispatch({pre.cost, std::move(job), post.cost},
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(detections)),
                     std::move(done));
        });
}

// --------------------------------------------------------------- fusion

RangeVisionFusionNode::RangeVisionFusionNode(ros::RosGraph &graph,
                                             const NodeConfig &config,
                                             bool degraded)
    : PerceptionNode(graph, "range_vision_fusion", config),
      degraded_(degraded),
      pub_(graph.advertise<ObjectList>(topics::fusedObjects, name()))
{
    subscribe<PoseEstimate>(
        topics::ndtPose, 2,
        [this](const ros::Stamped<PoseEstimate> &msg,
               std::function<void()> done) {
            pose_ = msg.data;
            done();
        });

    // LiDAR clusters are cached; the *vision* callback triggers the
    // fusion (Autoware's range_vision_fusion behaviour). The cached
    // cluster list therefore ages up to one camera period before it
    // reaches the tracker — a real contributor to the LiDAR object
    // path's end-to-end latency (paper Fig. 6).
    //
    // Degradation: when degraded_, a cluster list arriving while the
    // image detections are older than kVisionStaleAfter is published
    // LiDAR-only instead of parking in the cache — a camera blackout
    // must not starve the tracker.
    subscribe<ObjectList>(
        topics::lidarObjects, 2,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            lastLidar_ = msg;
            const sim::Tick now = this->graph().eventQueue().now();
            const bool vision_stale =
                degraded_ &&
                (!sawVision_ ||
                 now - lastVisionStamp_ > kVisionStaleAfter);
            if (!vision_stale) {
                done();
                return;
            }
            static const ObjectList no_vision;
            auto fused = measure([&](uarch::KernelProfiler prof) {
                return fuseObjects(msg.data, no_vision, egoPose(pose_),
                                   kFusion, prof);
            });
            ++lidarOnly_;
            dispatch(fused.cost,
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(fused.value)),
                     std::move(done));
        });

    subscribe<ObjectList>(
        topics::imageObjects, 2,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            sawVision_ = true;
            lastVisionStamp_ = msg.header.stamp;
            static const ObjectList empty;
            const ObjectList &lidar =
                lastLidar_ ? lastLidar_->data : empty;
            auto fused = measure([&](uarch::KernelProfiler prof) {
                return fuseObjects(lidar, msg.data, egoPose(pose_),
                                   kFusion, prof);
            });

            // Lineage: the fused output derives from this camera
            // list *and* the cached LiDAR list (paper Table IV:
            // both computation paths cross this node).
            ros::Header header = deriveHeader(msg.header);
            if (lastLidar_)
                header.origins = header.origins.merged(
                    lastLidar_->header.origins);
            dispatch(fused.cost,
                     publishing(pub_, std::move(header),
                                std::move(fused.value)),
                     std::move(done));
        });
}

// -------------------------------------------------------------- tracker

ImmUkfPdaNode::ImmUkfPdaNode(ros::RosGraph &graph,
                             const NodeConfig &config,
                             bool degraded)
    : PerceptionNode(graph, "imm_ukf_pda_tracker", config),
      pub_(graph.advertise<ObjectList>(topics::trackedObjects, name()))
{
    subscribe<ObjectList>(
        topics::fusedObjects, 1,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            sawFused_ = true;
            lastFusedStamp_ = msg.header.stamp;
            lastOrigins_ = msg.header.origins;
            auto tracked = measure([&](uarch::KernelProfiler prof) {
                return tracker_.update(msg.data, msg.header.stamp, prof);
            });
            dispatch(tracked.cost,
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(tracked.value)),
                     std::move(done));
        });

    if (degraded) {
        coastTask_.emplace(graph.eventQueue(), kCoastPeriod,
                           [this](std::uint64_t) { maybeCoast(); });
        coastTask_->start(kCoastPeriod);
    }
}

void
ImmUkfPdaNode::maybeCoast()
{
    // Fires as its own event, never inside a message handler, so it
    // cannot interleave with an update() in flight (busy() is the
    // simulated-execution flag; the functional tracker state is
    // consistent between events).
    const sim::Tick now = graph().eventQueue().now();
    if (down() || !sawFused_ || now - lastFusedStamp_ <= kCoastAfter)
        return;
    if (tracker_.confirmedCount() == 0)
        return;
    ObjectList coasted = tracker_.coast(now);
    lastFusedStamp_ = now; // next coast after another full gap
    ++coasts_;
    ros::Header header;
    header.stamp = now;
    header.origins = lastOrigins_;
    const std::size_t bytes = coasted.byteSize();
    pub_.publish(header, std::move(coasted), bytes);
}

// ---------------------------------------------------------------- relay

TrackRelayNode::TrackRelayNode(ros::RosGraph &graph,
                               const NodeConfig &config)
    : PerceptionNode(graph, "ukf_track_relay", config),
      pub_(graph.advertise<ObjectList>(topics::objects, name()))
{
    subscribe<ObjectList>(
        topics::trackedObjects, 5,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            auto relayed = measure([&](uarch::KernelProfiler prof) {
                const std::size_t n = msg.data.objects.size();
                prof.addOps({.loads = 20 * n + 2000,
                             .stores = 20 * n + 2000,
                             .branches = 2 * n + 500,
                             .intAlu = 10 * n + 1000});
                return msg.data;
            });
            dispatch(relayed.cost,
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(relayed.value)),
                     std::move(done));
        });
}

// -------------------------------------------------------------- predict

NaiveMotionPredictNode::NaiveMotionPredictNode(
    ros::RosGraph &graph, const NodeConfig &config)
    : PerceptionNode(graph, "naive_motion_prediction", config),
      pub_(graph.advertise<ObjectList>(topics::predictedObjects, name()))
{
    subscribe<ObjectList>(
        topics::objects, 1,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            auto predicted = measure([&](uarch::KernelProfiler prof) {
                return predictMotion(msg.data, kPredict, prof);
            });
            dispatch(predicted.cost,
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(predicted.value)),
                     std::move(done));
        });
}

// -------------------------------------------------------------- costmap

CostmapGeneratorNode::CostmapGeneratorNode(ros::RosGraph &graph,
                                           const NodeConfig &config)
    : PerceptionNode(graph, "costmap_generator", config),
      pub_(graph.advertise<Costmap>(topics::costmap, name()))
{
    subscribe<PoseEstimate>(
        topics::ndtPose, 2,
        [this](const ros::Stamped<PoseEstimate> &msg,
               std::function<void()> done) {
            pose_ = msg.data;
            done();
        });

    // Object callback: the latency-heavy one (Fig. 5's
    // costmap_generator_obj).
    subscribe<ObjectList>(
        topics::predictedObjects, 1,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            auto map = measure([&](uarch::KernelProfiler prof) {
                return generateObjectCostmap(msg.data, egoPose(pose_),
                                             kCostmap, prof);
            });
            dispatch({map.cost, "costmap_generator_obj"},
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(map.value)),
                     std::move(done));
        });

    // Points callback (costmap_generator_points).
    subscribe<pc::PointCloud>(
        topics::pointsNoGround, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            auto map = measure([&](uarch::KernelProfiler prof) {
                return generatePointsCostmap(msg.data, egoPose(pose_),
                                             kCostmap, prof);
            });
            dispatch({map.cost, "costmap_generator_points"},
                     publishing(pub_, deriveHeader(msg.header),
                                std::move(map.value)),
                     std::move(done));
        });
}

} // namespace av::perception
