/**
 * @file
 * google-benchmark microbenchmarks of the algorithm cores (host
 * performance of the functional implementations) and of the µarch
 * probe simulators they feed when a node traces them. The *Traced
 * benchmarks and BM_ObjectCostmap run one kernel detached
 * (/attached:0, probes are no-ops) and attached to a NodeArchState
 * that traces every invocation (/attached:1); the difference is the
 * per-invocation probe cost.
 * Useful for keeping the library's own hot paths honest.
 */

#include <benchmark/benchmark.h>

#include "dnn/cost.hh"
#include "dnn/network.hh"
#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/imm_ukf_pda.hh"
#include "perception/motion_predict.hh"
#include "perception/ndt.hh"
#include "perception/ray_ground_filter.hh"
#include "pointcloud/kdtree.hh"
#include "pointcloud/voxel_grid.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/profiler.hh"
#include "util/random.hh"
#include "world/map_builder.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace {

using namespace av;

pc::PointCloud
scanAt(sim::Tick t)
{
    static const world::Scenario scenario;
    static const world::LidarModel lidar;
    return lidar.scan(scenario, t);
}

/** The NDT map of the first minute of the drive, built once. */
const pc::PointCloud &
ndtMap()
{
    static const pc::PointCloud map = [] {
        world::MapBuilderConfig map_cfg;
        map_cfg.scanInterval = 2 * sim::oneSec;
        const world::MapBuilder builder(map_cfg);
        return builder.build(world::Scenario(), world::LidarModel(),
                             60 * sim::oneSec);
    }();
    return map;
}

/** Node µarch state that traces every invocation (trace period 1). */
uarch::NodeArchState
tracingState()
{
    return uarch::NodeArchState(uarch::CacheConfig(),
                                uarch::BranchConfig(),
                                uarch::PipelineConfig(), 1);
}

void
BM_LidarScan(benchmark::State &state)
{
    const world::Scenario scenario;
    const world::LidarModel lidar;
    sim::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lidar.scan(scenario, t));
        t += 100 * sim::oneMs;
    }
}
BENCHMARK(BM_LidarScan)->Unit(benchmark::kMillisecond);

void
BM_VoxelGridDownsample(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pc::voxelGridDownsample(scan, 1.5));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scan.size()));
}
BENCHMARK(BM_VoxelGridDownsample)->Unit(benchmark::kMicrosecond);

void
BM_KdTreeBuild(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state) {
        pc::KdTree tree;
        tree.build(scan);
        benchmark::DoNotOptimize(tree.size());
    }
}
BENCHMARK(BM_KdTreeBuild)->Unit(benchmark::kMicrosecond);

void
BM_KdTreeRadiusSearch(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    pc::KdTree tree;
    tree.build(scan);
    util::Rng rng(1);
    std::vector<std::uint32_t> found;
    for (auto _ : state) {
        const geom::Vec3 q{rng.uniform(-30, 30),
                           rng.uniform(-30, 30), 1.0};
        benchmark::DoNotOptimize(
            tree.radiusSearch(q, 0.6, found));
    }
}
BENCHMARK(BM_KdTreeRadiusSearch);

/**
 * Object costmap of 12 cars with predicted paths: about 850 inflated
 * 0.6 m discs per footprint, each painted row by row.
 */
void
BM_ObjectCostmap(benchmark::State &state)
{
    perception::ObjectList objects;
    util::Rng rng(3);
    for (int i = 0; i < 12; ++i) {
        perception::DetectedObject obj;
        obj.position = {rng.uniform(-25, 25), rng.uniform(-25, 25)};
        obj.length = 4.4;
        obj.width = 1.8;
        obj.hasVelocity = true;
        obj.velocity = {rng.uniform(-8, 8), rng.uniform(-8, 8)};
        obj.yaw = rng.uniform(-3, 3);
        objects.objects.push_back(obj);
    }
    objects = perception::predictMotion(objects,
                                        perception::PredictConfig());
    uarch::NodeArchState arch = tracingState();
    const bool attached = state.range(0) != 0;
    for (auto _ : state) {
        arch.beginInvocation();
        benchmark::DoNotOptimize(perception::generateObjectCostmap(
            objects, geom::Pose2{}, perception::CostmapConfig(),
            attached ? uarch::KernelProfiler(&arch)
                     : uarch::KernelProfiler()));
        benchmark::DoNotOptimize(arch.endInvocation());
    }
}
BENCHMARK(BM_ObjectCostmap)
    ->ArgName("attached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/**
 * NDT's candidate-voxel lookup (7 key finds) for the points of a
 * downsampled scan placed at the true pose, so most find voxels.
 */
void
BM_VoxelNeighborhood(benchmark::State &state)
{
    pc::GaussianVoxelGrid grid;
    grid.build(ndtMap(), perception::NdtConfig().voxelLeaf);
    const geom::Pose2 truth =
        world::Scenario().egoPoseAt(5 * sim::oneSec);
    std::vector<geom::Vec3> queries;
    for (const pc::Point &p :
         pc::voxelGridDownsample(scanAt(5 * sim::oneSec), 1.5).points) {
        const geom::Vec2 w = truth.apply({p.x, p.y});
        queries.push_back({w.x, w.y, p.z});
    }
    std::vector<const pc::GaussianVoxelGrid::Voxel *> hood;
    std::size_t i = 0;
    for (auto _ : state) {
        grid.neighborhood(queries[i], hood);
        benchmark::DoNotOptimize(hood.data());
        i = i + 1 == queries.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VoxelNeighborhood);

void
BM_RayGroundFilter(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            perception::rayGroundFilter(
                scan, perception::RayGroundConfig()));
}
BENCHMARK(BM_RayGroundFilter)->Unit(benchmark::kMicrosecond);

void
BM_EuclideanCluster(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    const auto split = perception::rayGroundFilter(
        scan, perception::RayGroundConfig());
    const auto cropped = perception::cropForClustering(
        split.noGround, perception::ClusterConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(perception::euclideanCluster(
            cropped, perception::ClusterConfig()));
}
BENCHMARK(BM_EuclideanCluster)->Unit(benchmark::kMicrosecond);

void
BM_EuclideanClusterTraced(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    const auto split = perception::rayGroundFilter(
        scan, perception::RayGroundConfig());
    const auto cropped = perception::cropForClustering(
        split.noGround, perception::ClusterConfig());
    uarch::NodeArchState arch = tracingState();
    const bool attached = state.range(0) != 0;
    for (auto _ : state) {
        arch.beginInvocation();
        benchmark::DoNotOptimize(perception::euclideanCluster(
            cropped, perception::ClusterConfig(),
            attached ? uarch::KernelProfiler(&arch)
                     : uarch::KernelProfiler()));
        benchmark::DoNotOptimize(arch.endInvocation());
    }
}
BENCHMARK(BM_EuclideanClusterTraced)
    ->ArgName("attached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void
BM_NdtAlign(benchmark::State &state)
{
    const world::Scenario scenario;
    perception::NdtMatcher matcher;
    matcher.setMap(ndtMap());
    const auto scan = pc::voxelGridDownsample(
        scanAt(5 * sim::oneSec), 1.5);
    const geom::Pose2 truth =
        scenario.egoPoseAt(5 * sim::oneSec);
    for (auto _ : state) {
        geom::Pose2 guess = truth;
        guess.p.x += 0.4;
        guess.yaw += 0.02;
        benchmark::DoNotOptimize(matcher.align(scan, guess));
    }
}
BENCHMARK(BM_NdtAlign)->Unit(benchmark::kMillisecond);

void
BM_TrackerUpdate(benchmark::State &state)
{
    const auto n_objects = state.range(0);
    perception::ImmUkfPdaTracker tracker;
    util::Rng rng(2);
    sim::Tick t = 0;
    for (auto _ : state) {
        perception::ObjectList list;
        for (long i = 0; i < n_objects; ++i) {
            perception::DetectedObject obj;
            obj.position = {static_cast<double>(i) * 15.0 +
                                rng.gaussian(0, 0.1),
                            rng.gaussian(0, 0.1)};
            list.objects.push_back(obj);
        }
        t += 100 * sim::oneMs;
        benchmark::DoNotOptimize(tracker.update(list, t));
    }
}
BENCHMARK(BM_TrackerUpdate)->Arg(4)->Arg(16)->Arg(64);

void
BM_DnnPostprocessTraced(benchmark::State &state)
{
    const dnn::NetworkSpec net = dnn::buildSsd512();
    uarch::NodeArchState arch = tracingState();
    const bool attached = state.range(0) != 0;
    util::Rng rng(4);
    for (auto _ : state) {
        arch.beginInvocation();
        benchmark::DoNotOptimize(dnn::postprocessFrame(
            net, rng,
            attached ? uarch::KernelProfiler(&arch)
                     : uarch::KernelProfiler()));
        benchmark::DoNotOptimize(arch.endInvocation());
    }
}
BENCHMARK(BM_DnnPostprocessTraced)
    ->ArgName("attached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/**
 * Sequential 4-byte reads sweeping a power-of-two buffer; 256 KiB is
 * 8× the default 32 KiB L1.
 */
void
BM_CacheModelStream(benchmark::State &state)
{
    uarch::CacheModel cache;
    const auto mask = static_cast<std::uintptr_t>(state.range(0)) - 1;
    std::uintptr_t addr = 0;
    for (auto _ : state) {
        cache.read(addr, 4);
        addr = (addr + 4) & mask;
    }
    benchmark::DoNotOptimize(cache.stats());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheModelStream)->Arg(256 * 1024);

/** Uniformly scattered 8-byte reads and writes over 1 MiB. */
void
BM_CacheModelScattered(benchmark::State &state)
{
    uarch::CacheModel cache;
    util::Rng rng(5);
    std::vector<std::uintptr_t> addrs(1 << 16);
    for (std::uintptr_t &a : addrs)
        a = static_cast<std::uintptr_t>(rng.uniformInt(0, 1 << 20));
    std::size_t i = 0;
    for (auto _ : state) {
        cache.access(addrs[i], 8, (i & 3u) == 0);
        i = (i + 1) & (addrs.size() - 1);
    }
    benchmark::DoNotOptimize(cache.stats());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheModelScattered);

/** Gshare over a few sites with biased and random outcomes. */
void
BM_Gshare(benchmark::State &state)
{
    uarch::GsharePredictor bp;
    util::Rng rng(6);
    std::vector<std::uint8_t> taken(1 << 16);
    for (std::size_t k = 0; k < taken.size(); ++k)
        taken[k] = rng.bernoulli(k % 2 ? 0.9 : 0.5) ? 1 : 0;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.record(0x40 + (i & 7u), taken[i] != 0));
        i = (i + 1) & (taken.size() - 1);
    }
    benchmark::DoNotOptimize(bp.stats());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Gshare);

} // namespace

BENCHMARK_MAIN();
