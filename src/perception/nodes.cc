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

/** Wrap a payload in a shared_ptr for cheap capture in callbacks. */
template <typename T>
std::shared_ptr<T>
share(T value)
{
    return std::make_shared<T>(std::move(value));
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
                    beginWork();
                    VoxelGridInvocation result;
                    result.filtered = pc::voxelGridDownsample(
                        msg.data, kVoxelLeaf, profiler());
                    result.cost = finishWork();
                    return result;
                });
            const auto header = deriveHeader(msg.header);
            runOnCpu(out->cost, [this, out, header,
                                 done = std::move(done)] {
                // The entry may be shared: publish a copy.
                pub_.publish(header, out->filtered,
                             out->filtered.byteSize());
                done();
            });
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
                beginWork();
                NdtInvocation out;
                out.result = matcher_.align(msg.data, guess, profiler());
                out.cost = finishWork();
                return out;
            });
            const NdtResult &result = aligned->result;
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

            const auto header = deriveHeader(msg.header);
            runOnCpu(aligned->cost,
                     [this, estimate, header, done = std::move(done)] {
                         pub_.publish(header, estimate, 96);
                         done();
                     });
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
                    beginWork();
                    RayGroundInvocation result;
                    result.split = rayGroundIndices(msg.data, kRayGround,
                                                    profiler());
                    result.cost = finishWork();
                    return result;
                });
            auto split = share(out->split.gather(msg.data));
            const auto header = deriveHeader(msg.header);
            runOnCpu(out->cost, [this, split, header,
                                 done = std::move(done)] {
                const std::size_t ngBytes =
                    split->noGround.byteSize();
                const std::size_t gBytes = split->ground.byteSize();
                pubNoGround_.publish(header,
                                     std::move(split->noGround),
                                     ngBytes);
                pubGround_.publish(header, std::move(split->ground),
                                   gBytes);
                done();
            });
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
                    beginWork();
                    ClusterInvocation out;
                    const pc::PointCloud cropped = cropForClustering(
                        msg.data, kCluster, profiler());
                    out.clusters =
                        euclideanCluster(cropped, kCluster, profiler());
                    out.croppedPoints = cropped.size();
                    out.cost = finishWork();
                    return out;
                });
            const std::vector<Cluster> &clusters = result->clusters;

            // Clusters are vehicle-frame; ground them in the world
            // with the latest localization estimate.
            const geom::Pose2 ego =
                pose_ ? geom::Pose2{pose_->position, pose_->yaw}
                      : geom::Pose2{};
            auto list = share(ObjectList{});
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
                list->objects.push_back(std::move(obj));
            }

            const uarch::InvocationCost &cost = result->cost;
            const auto header = deriveHeader(msg.header);
            const auto publish = [this, list, header, done = std::move(done)] {
                const std::size_t bytes = list->byteSize();
                pub_.publish(header, std::move(*list), bytes);
                done();
            };

            // The CPU keeps the transforms and extraction, 50% of
            // the measured cost before the device and 45% after; the
            // neighbour search runs as two kernels on the device.
            const double n =
                static_cast<double>(result->croppedPoints);
            hw::GpuJob job;
            job.owner = name();
            job.h2dBytes = n * 16.0;
            const double kflops = 1.1e10 * (n / 3000.0) + 5.0e8;
            job.kernels = {hw::GpuKernel{kflops, n * 64.0, 0.8},
                           hw::GpuKernel{kflops, n * 32.0, 0.8}};
            job.d2hBytes =
                64.0 * static_cast<double>(clusters.size()) +
                1024.0;

            auto pre = cost;
            pre.cycles *= 0.50;
            pre.dramBytes *= 0.50;
            auto post = cost;
            post.cycles *= 0.45;
            post.dramBytes *= 0.45;

            std::vector<hw::Phase> phases;
            phases.push_back(hw::Phase::makeCpu(
                makeCpuTask(pre, nullptr)));
            phases.push_back(hw::Phase::makeGpu(std::move(job)));
            phases.push_back(hw::Phase::makeCpu(
                makeCpuTask(post, nullptr)));
            hw::runPhases(machine(), std::move(phases), publish);
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
            auto detections = share(detectObjects(
                msg.data, msg.header.stamp, kind_));

            // Costs: preprocess / inference / postprocess.
            beginWork();
            dnn::preprocessFrame(network_, msg.data.width,
                                 msg.data.height, profiler());
            const auto pre_cost = finishWork();

            beginWork();
            dnn::postprocessFrame(network_, rng_, profiler());
            const auto post_cost = finishWork();

            hw::GpuJob job;
            job.owner = name();
            job.h2dBytes = dnn::networkH2dBytes(network_);
            job.kernels = kernels_;
            // Residual run-to-run inference jitter (clock/thermal
            // variation real GPUs show even on fixed input sizes).
            const double gpu_jitter = costJitter();
            for (hw::GpuKernel &k : job.kernels)
                k.flops *= gpu_jitter;
            job.d2hBytes = dnn::networkD2hBytes(network_);

            std::vector<hw::Phase> phases;
            phases.push_back(hw::Phase::makeCpu(
                makeCpuTask(pre_cost, nullptr)));
            phases.push_back(hw::Phase::makeGpu(std::move(job)));
            phases.push_back(hw::Phase::makeCpu(
                makeCpuTask(post_cost, nullptr)));

            const auto header = deriveHeader(msg.header);
            hw::runPhases(
                machine(), std::move(phases),
                [this, detections, header, done = std::move(done)] {
                    const std::size_t bytes =
                        detections->byteSize();
                    pub_.publish(header, std::move(*detections),
                                 bytes);
                    done();
                });
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
            beginWork();
            const geom::Pose2 ego =
                pose_ ? geom::Pose2{pose_->position, pose_->yaw}
                      : geom::Pose2{};
            static const ObjectList no_vision;
            auto fused = share(fuseObjects(msg.data, no_vision, ego,
                                           kFusion, profiler()));
            ++lidarOnly_;
            const ros::Header header = deriveHeader(msg.header);
            finishWorkOnCpu([this, fused, header, done = std::move(done)] {
                const std::size_t bytes = fused->byteSize();
                pub_.publish(header, std::move(*fused), bytes);
                done();
            });
        });

    subscribe<ObjectList>(
        topics::imageObjects, 2,
        [this](const ros::Stamped<ObjectList> &msg,
               std::function<void()> done) {
            sawVision_ = true;
            lastVisionStamp_ = msg.header.stamp;
            beginWork();
            const geom::Pose2 ego =
                pose_ ? geom::Pose2{pose_->position, pose_->yaw}
                      : geom::Pose2{};
            static const ObjectList empty;
            const ObjectList &lidar =
                lastLidar_ ? lastLidar_->data : empty;
            auto fused = share(fuseObjects(lidar, msg.data, ego,
                                           kFusion, profiler()));

            // Lineage: the fused output derives from this camera
            // list *and* the cached LiDAR list (paper Table IV:
            // both computation paths cross this node).
            ros::Header header = deriveHeader(msg.header);
            if (lastLidar_)
                header.origins = header.origins.merged(
                    lastLidar_->header.origins);

            finishWorkOnCpu([this, fused, header, done = std::move(done)] {
                const std::size_t bytes = fused->byteSize();
                pub_.publish(header, std::move(*fused), bytes);
                done();
            });
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
            beginWork();
            auto tracked = share(tracker_.update(
                msg.data, msg.header.stamp, profiler()));
            const auto header = deriveHeader(msg.header);
            finishWorkOnCpu([this, tracked, header, done = std::move(done)] {
                const std::size_t bytes = tracked->byteSize();
                pub_.publish(header, std::move(*tracked), bytes);
                done();
            });
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
    auto coasted = share(tracker_.coast(now));
    lastFusedStamp_ = now; // next coast after another full gap
    ++coasts_;
    ros::Header header;
    header.stamp = now;
    header.origins = lastOrigins_;
    const std::size_t bytes = coasted->byteSize();
    pub_.publish(header, std::move(*coasted), bytes);
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
            beginWork();
            uarch::OpCounts ops;
            ops.loads = 20 * msg.data.objects.size() + 2000;
            ops.stores = 20 * msg.data.objects.size() + 2000;
            ops.intAlu = 10 * msg.data.objects.size() + 1000;
            ops.branches = 2 * msg.data.objects.size() + 500;
            profiler().addOps(ops);
            auto list = share(msg.data);
            const auto header = deriveHeader(msg.header);
            finishWorkOnCpu([this, list, header, done = std::move(done)] {
                const std::size_t bytes = list->byteSize();
                pub_.publish(header, std::move(*list), bytes);
                done();
            });
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
            beginWork();
            auto predicted = share(
                predictMotion(msg.data, kPredict, profiler()));
            const auto header = deriveHeader(msg.header);
            finishWorkOnCpu([this, predicted, header, done = std::move(done)] {
                const std::size_t bytes = predicted->byteSize();
                pub_.publish(header, std::move(*predicted), bytes);
                done();
            });
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
            beginWork();
            const geom::Pose2 ego =
                pose_ ? geom::Pose2{pose_->position, pose_->yaw}
                      : geom::Pose2{};
            auto map = share(generateObjectCostmap(
                msg.data, ego, kCostmap, profiler()));
            const auto cost = finishWork();
            auto task = makeCpuTask(cost, nullptr);
            task.owner = "costmap_generator_obj";
            const auto header = deriveHeader(msg.header);
            task.onComplete = [this, map, header, done = std::move(done)] {
                const std::size_t bytes = map->byteSize();
                pub_.publish(header, std::move(*map), bytes);
                done();
            };
            machine().cpu().submit(std::move(task));
        });

    // Points callback (costmap_generator_points).
    subscribe<pc::PointCloud>(
        topics::pointsNoGround, 1,
        [this](const ros::Stamped<pc::PointCloud> &msg,
               std::function<void()> done) {
            beginWork();
            const geom::Pose2 ego =
                pose_ ? geom::Pose2{pose_->position, pose_->yaw}
                      : geom::Pose2{};
            auto map = share(generatePointsCostmap(
                msg.data, ego, kCostmap, profiler()));
            const auto cost = finishWork();
            auto task = makeCpuTask(cost, nullptr);
            task.owner = "costmap_generator_points";
            const auto header = deriveHeader(msg.header);
            task.onComplete = [this, map, header, done = std::move(done)] {
                const std::size_t bytes = map->byteSize();
                pub_.publish(header, std::move(*map), bytes);
                done();
            };
            machine().cpu().submit(std::move(task));
        });
}

} // namespace av::perception
