/**
 * @file
 * Differential tests of the LiDAR kernels whose host code was
 * rewritten for speed — the costmap disc painter, the kd-tree radius
 * search and the NDT voxel lookup — against the straightforward
 * implementations they replaced, and of the ray ground filter's
 * index form against the clouds it gathers to.
 *
 * The reference copies below are those implementations: a
 * cell-by-cell disc painter over the (2r+1)^2 box, a recursive radius
 * search over a {split, pointIdx, left, right, axis} node pool, and a
 * voxel grid keyed by std::unordered_map. Seeded random inputs plus
 * edge cases drive both sides, each with its own tracing
 * NodeArchState (trace_period = 1). Outputs must be equal, in the
 * same order, and so must every op count, cache counter and branch
 * counter — which holds only if both sides emitted the same probe
 * stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "perception/costmap.hh"
#include "perception/ray_ground_filter.hh"
#include "pointcloud/kdtree.hh"
#include "pointcloud/voxel_grid.hh"
#include "uarch/profiler.hh"
#include "util/random.hh"

namespace {

using namespace av;
using perception::Costmap;
using perception::CostmapConfig;
using perception::ObjectList;
using uarch::KernelProfiler;
using uarch::NodeArchState;

NodeArchState
tracingState()
{
    return NodeArchState(uarch::CacheConfig(), uarch::BranchConfig(),
                         uarch::PipelineConfig(), 1);
}

/** Every counter the probes and op accounting feed. */
void
expectSameArch(const NodeArchState &ref, const NodeArchState &got)
{
    const uarch::CacheStats &rc = ref.cacheStats();
    const uarch::CacheStats &gc = got.cacheStats();
    EXPECT_EQ(rc.readHits, gc.readHits);
    EXPECT_EQ(rc.readMisses, gc.readMisses);
    EXPECT_EQ(rc.writeHits, gc.writeHits);
    EXPECT_EQ(rc.writeMisses, gc.writeMisses);
    EXPECT_EQ(ref.branchStats().predicted, got.branchStats().predicted);
    EXPECT_EQ(ref.branchStats().mispredicted,
              got.branchStats().mispredicted);
    const uarch::OpCounts &ro = ref.totalOps();
    const uarch::OpCounts &go = got.totalOps();
    EXPECT_EQ(ro.loads, go.loads);
    EXPECT_EQ(ro.stores, go.stores);
    EXPECT_EQ(ro.branches, go.branches);
    EXPECT_EQ(ro.intAlu, go.intAlu);
    EXPECT_EQ(ro.fpAlu, go.fpAlu);
    EXPECT_EQ(ro.fpDiv, go.fpDiv);
    EXPECT_EQ(ro.simd, go.simd);
    EXPECT_EQ(ro.other, go.other);
    EXPECT_EQ(ref.ewmaReadMiss(), got.ewmaReadMiss());
    EXPECT_EQ(ref.ewmaWriteMiss(), got.ewmaWriteMiss());
    EXPECT_EQ(ref.ewmaBranchMiss(), got.ewmaBranchMiss());
}

// ---------------------------------------------------------------
// Costmap: the cell-by-cell painter.
// ---------------------------------------------------------------

namespace refcostmap {

constexpr KernelProfiler::Region regionGrid = 56;

Costmap
emptyGrid(const geom::Pose2 &ego, const CostmapConfig &config,
          KernelProfiler &prof)
{
    Costmap map;
    map.cellsX = static_cast<std::uint32_t>(config.sizeX /
                                            config.resolution);
    map.cellsY = static_cast<std::uint32_t>(config.sizeY /
                                            config.resolution);
    map.resolution = config.resolution;
    map.origin = ego.p - geom::Vec2{config.sizeX / 2.0,
                                    config.sizeY / 2.0};
    map.cost.assign(static_cast<std::size_t>(map.cellsX) *
                        map.cellsY,
                    0.0f);
    uarch::OpCounts ops;
    ops.simd = map.cost.size() / 8;
    ops.intAlu = map.cost.size() / 16;
    prof.addOps(ops);
    return map;
}

void
paintDisc(Costmap &map, const geom::Vec2 &world, double radius,
          float value, KernelProfiler &prof, std::uint64_t &painted)
{
    const double gx = (world.x - map.origin.x) / map.resolution;
    const double gy = (world.y - map.origin.y) / map.resolution;
    const int r_cells = std::max(
        1, static_cast<int>(radius / map.resolution));
    const int cx = static_cast<int>(gx);
    const int cy = static_cast<int>(gy);
    for (int y = cy - r_cells; y <= cy + r_cells; ++y) {
        if (y < 0 || y >= static_cast<int>(map.cellsY))
            continue;
        for (int x = cx - r_cells; x <= cx + r_cells; ++x) {
            if (x < 0 || x >= static_cast<int>(map.cellsX))
                continue;
            const double dx = x - gx;
            const double dy = y - gy;
            if (dx * dx + dy * dy > double(r_cells) * r_cells)
                continue;
            const std::size_t cell_idx =
                static_cast<std::size_t>(y) * map.cellsX +
                static_cast<std::size_t>(x);
            float &cell = map.cost[cell_idx];
            cell = std::max(cell, value);
            ++painted;
            if (prof.tracing() && painted % 8 == 0) {
                prof.store(regionGrid, cell_idx * sizeof(float),
                           sizeof(float));
                prof.load(regionGrid, cell_idx * sizeof(float),
                          sizeof(float));
                prof.hotLoads(24);
                prof.hotStores(7);
            }
        }
    }
}

Costmap
objectCostmap(const ObjectList &objects, const geom::Pose2 &ego,
              const CostmapConfig &config, KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;
    for (const perception::DetectedObject &obj : objects.objects) {
        const double half_l = std::max(obj.length, 0.5) / 2.0;
        const double half_w = std::max(obj.width, 0.5) / 2.0;
        const double step = config.resolution;
        const double c = std::cos(obj.yaw);
        const double s = std::sin(obj.yaw);
        for (double u = -half_l; u <= half_l; u += step) {
            for (double v = -half_w; v <= half_w; v += step) {
                const geom::Vec2 w{obj.position.x + c * u - s * v,
                                   obj.position.y + s * u + c * v};
                paintDisc(map, w, config.inflation,
                          static_cast<float>(config.objectCost),
                          prof, painted);
            }
        }
        for (const geom::Vec2 &wp : obj.predictedPath) {
            paintDisc(map, wp,
                      config.inflation +
                          std::max(half_w, half_l) * 0.5,
                      static_cast<float>(config.pathCost), prof,
                      painted);
        }
    }
    uarch::OpCounts ops;
    ops.loads = 2 * painted;
    ops.stores = painted;
    ops.branches = 2 * painted;
    ops.fpAlu = 6 * painted;
    ops.intAlu = 5 * painted;
    prof.addOps(ops);
    prof.bulkBranches(2 * painted);
    return map;
}

Costmap
pointsCostmap(const pc::PointCloud &no_ground, const geom::Pose2 &ego,
              const CostmapConfig &config, KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;
    for (const pc::Point &p : no_ground.points) {
        if (p.z > 2.5)
            continue;
        const geom::Vec2 world = ego.apply({p.x, p.y});
        paintDisc(map, world, config.pointInflation,
                  static_cast<float>(config.objectCost), prof,
                  painted);
    }
    uarch::OpCounts ops;
    const std::uint64_t n = no_ground.size();
    ops.loads = 4 * n + 2 * painted;
    ops.stores = painted;
    ops.branches = 2 * n + painted;
    ops.fpAlu = 10 * n + 4 * painted;
    ops.intAlu = 4 * n + 4 * painted;
    prof.addOps(ops);
    prof.bulkBranches(2 * n + painted);
    return map;
}

} // namespace refcostmap

void
expectSameGrid(const Costmap &ref, const Costmap &got)
{
    ASSERT_EQ(ref.cellsX, got.cellsX);
    ASSERT_EQ(ref.cellsY, got.cellsY);
    EXPECT_EQ(ref.origin.x, got.origin.x);
    EXPECT_EQ(ref.origin.y, got.origin.y);
    ASSERT_EQ(ref.cost.size(), got.cost.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < ref.cost.size(); ++i)
        differing += ref.cost[i] != got.cost[i];
    EXPECT_EQ(differing, 0u);
}

/** Run both object-costmap implementations, compare everything. */
void
checkObjects(const ObjectList &objects, const geom::Pose2 &ego,
             const CostmapConfig &config)
{
    NodeArchState ref_arch = tracingState();
    NodeArchState got_arch = tracingState();
    ref_arch.beginInvocation();
    got_arch.beginInvocation();
    const Costmap ref = refcostmap::objectCostmap(
        objects, ego, config, KernelProfiler(&ref_arch));
    const Costmap got = perception::generateObjectCostmap(
        objects, ego, config, KernelProfiler(&got_arch));
    ref_arch.endInvocation();
    got_arch.endInvocation();
    expectSameGrid(ref, got);
    expectSameArch(ref_arch, got_arch);
    EXPECT_GT(ref_arch.totalOps().stores, 0u);
}

/** Same for the points layer: one disc per (low enough) point. */
void
checkPoints(const pc::PointCloud &cloud, const geom::Pose2 &ego,
            const CostmapConfig &config)
{
    NodeArchState ref_arch = tracingState();
    NodeArchState got_arch = tracingState();
    ref_arch.beginInvocation();
    got_arch.beginInvocation();
    const Costmap ref = refcostmap::pointsCostmap(
        cloud, ego, config, KernelProfiler(&ref_arch));
    const Costmap got = perception::generatePointsCostmap(
        cloud, ego, config, KernelProfiler(&got_arch));
    ref_arch.endInvocation();
    got_arch.endInvocation();
    expectSameGrid(ref, got);
    expectSameArch(ref_arch, got_arch);
}

ObjectList
randomObjects(std::uint64_t seed, int count, double span)
{
    util::Rng rng(seed);
    ObjectList list;
    for (int i = 0; i < count; ++i) {
        perception::DetectedObject obj;
        obj.position = {rng.uniform(-span, span),
                        rng.uniform(-span, span)};
        obj.yaw = rng.uniform(-M_PI, M_PI);
        obj.length = rng.uniform(0.2, 5.0);
        obj.width = rng.uniform(0.2, 2.5);
        for (int k = 0; k < 4; ++k)
            obj.predictedPath.push_back(
                obj.position +
                geom::Vec2{1.2 * (k + 1) * std::cos(obj.yaw),
                           1.2 * (k + 1) * std::sin(obj.yaw)});
        list.objects.push_back(obj);
    }
    return list;
}

TEST(KernelOracle, ObjectCostmapMatchesCellByCellPainter)
{
    // Default 600x600 grid; objects inside, across the border and
    // outside it, with a rotated ego.
    checkObjects(randomObjects(11, 6, 36.0), geom::Pose2{},
                 CostmapConfig());
    checkObjects(randomObjects(12, 6, 36.0),
                 geom::Pose2{{3.7, -12.25}, 0.6}, CostmapConfig());
}

TEST(KernelOracle, ObjectCostmapRadiusOneAndSeventeen)
{
    // resolution 0.25: inflation 0.25 gives r_cells = 1, 4.25 gives
    // 17 (and wider discs on the predicted path).
    CostmapConfig config;
    config.sizeX = 15.0;
    config.sizeY = 12.5;
    config.resolution = 0.25;
    for (const double inflation : {0.1, 0.25, 4.25}) {
        config.inflation = inflation;
        checkObjects(randomObjects(13, 5, 10.0), geom::Pose2{},
                     config);
    }
}

TEST(KernelOracle, PointsCostmapMatchesOnRandomClouds)
{
    util::Rng rng(21);
    pc::PointCloud cloud;
    for (int i = 0; i < 3000; ++i)
        cloud.push_back(pc::Point::fromVec(
            {rng.uniform(-34.0, 34.0), rng.uniform(-34.0, 34.0),
             rng.uniform(-1.0, 3.0)}));
    checkPoints(cloud, geom::Pose2{}, CostmapConfig());
    checkPoints(cloud, geom::Pose2{{-1.3, 0.45}, -2.1},
                CostmapConfig());
}

TEST(KernelOracle, PointsCostmapEdgeCenters)
{
    // resolution 0.25, origin (-7.5, -7.5): every point below sits
    // on an exact cell corner or exact half-cell, so disc rims land
    // exactly on dx^2 + dy^2 = r^2 and spans end on exact .5 centers.
    CostmapConfig config;
    config.sizeX = 15.0;
    config.sizeY = 15.0;
    config.resolution = 0.25;
    pc::PointCloud cloud;
    for (int i = -40; i <= 100; i += 3) {
        for (int j = -40; j <= 100; j += 7) {
            const double x = -7.5 + 0.125 * i;
            const double y = -7.5 + 0.125 * j;
            cloud.push_back(pc::Point::fromVec({x, y, 0.0}));
        }
    }
    // Centers well outside the grid on every side, and negative grid
    // coordinates within a radius of the edge (truncation to 0).
    for (const double far : {-30.0, -9.0, -7.6, 7.6, 9.0, 30.0}) {
        cloud.push_back(pc::Point::fromVec({far, 0.3, 0.0}));
        cloud.push_back(pc::Point::fromVec({0.3, far, 0.0}));
        cloud.push_back(pc::Point::fromVec({far, far, 0.0}));
    }
    for (const double inflation : {0.1, 0.25, 0.33, 1.0, 4.25}) {
        config.pointInflation = inflation;
        checkPoints(cloud, geom::Pose2{}, config);
    }
}

TEST(KernelOracle, DiscRimsWhereTheSqrtEndIsOffByOne)
{
    // Centers found by search where gx + sqrt(r^2 - dy^2) rounds to
    // just below an integer cell that the exact predicate still
    // takes (the first of each pair), or to that integer when the
    // predicate rejects the cell (the second), so the span's right
    // end must move by one cell. With 1 m cells and the origin at
    // (0, 0), a waypoint's world position is its grid position
    // exactly.
    CostmapConfig config;
    config.sizeX = 600.0;
    config.sizeY = 600.0;
    config.resolution = 1.0;
    const geom::Pose2 ego{{300.0, 300.0}, 0.0};
    perception::DetectedObject obj;
    obj.position = {50.0, 50.0};
    ObjectList objects;
    objects.objects.push_back(obj);

    // Path discs have radius inflation + 0.125 (the 0.5 m minimum
    // footprint): r_cells 6, then 17.
    config.inflation = 5.875;
    objects.objects[0].predictedPath = {
        {146.98946360577517, 136.9999907486926},
        {203.66663292262973, 430.7486716097095},
        {124.88459896885922, 465.0011098858196},
        {419.87370181917987, 265.11786256293}};
    checkObjects(objects, ego, config);
    config.inflation = 16.875;
    objects.objects[0].predictedPath = {
        {237.58606344856622, 488.994959739034},
        {127.81796023982568, 350.79024096525205},
        {469.74387163776964, 233.9980704276121},
        {376.00039213568624, 102.88453372976267}};
    checkObjects(objects, ego, config);
}

// ---------------------------------------------------------------
// kd-tree: the recursive radius search.
// ---------------------------------------------------------------

class ReferenceKdTree
{
  public:
    void
    build(const pc::PointCloud &cloud, KernelProfiler prof)
    {
        cloud_ = &cloud;
        nodes_.clear();
        root_ = -1;
        if (cloud.empty())
            return;
        std::vector<std::uint32_t> idx(cloud.size());
        for (std::uint32_t i = 0; i < cloud.size(); ++i)
            idx[i] = i;
        root_ = buildRange(idx, 0, idx.size(), 0, prof);
        const std::uint64_t n = cloud.size();
        const std::uint64_t logn = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(std::log2(double(n)))));
        uarch::OpCounts build_ops;
        build_ops.loads = 4 * n * logn;
        build_ops.stores = 2 * n * logn;
        build_ops.branches = 2 * n * logn;
        build_ops.intAlu = 3 * n * logn;
        build_ops.fpAlu = n * logn;
        prof.addOps(build_ops);
        prof.bulkBranches(2 * n * logn);
    }

    std::size_t
    radiusSearch(const geom::Vec3 &query, double radius,
                 std::vector<std::uint32_t> &out,
                 KernelProfiler prof) const
    {
        out.clear();
        if (root_ < 0)
            return 0;
        std::uint64_t steps = 0;
        radiusRecurse(root_, query, radius * radius, out, prof, steps);
        prof.addOps(stepOps.scaled(steps));
        if (prof.tracing()) {
            prof.hotLoads(3 * steps);
            prof.hotStores(2 * steps);
            prof.bulkBranches(10 * steps);
        }
        return out.size();
    }

    struct Node
    {
        float split;
        std::uint32_t pointIdx;
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::uint8_t axis = 0;
    };

  private:
    static constexpr std::uint64_t siteInRadius = 0x51002;
    static constexpr KernelProfiler::Region regionNodes = 8;
    static constexpr KernelProfiler::Region regionPoints = 9;
    const uarch::OpCounts stepOps{12, 5, 3, 3, 6, 0, 0, 1};

    std::int32_t
    buildRange(std::vector<std::uint32_t> &idx, std::size_t lo,
               std::size_t hi, int depth, KernelProfiler &prof)
    {
        if (lo >= hi)
            return -1;
        const std::uint8_t axis =
            static_cast<std::uint8_t>(depth % 3);
        const std::size_t mid = (lo + hi) / 2;
        const auto coord = [&](std::uint32_t i) -> float {
            const pc::Point &p = (*cloud_)[i];
            return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
        };
        std::nth_element(idx.begin() + lo, idx.begin() + mid,
                         idx.begin() + hi,
                         [&](std::uint32_t a, std::uint32_t b) {
                             return coord(a) < coord(b);
                         });
        const std::int32_t me =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(
            Node{coord(idx[mid]), idx[mid], -1, -1, axis});
        if (prof.tracing())
            prof.store(regionNodes,
                       (nodes_.size() - 1) * sizeof(Node),
                       sizeof(Node));
        const std::int32_t left =
            buildRange(idx, lo, mid, depth + 1, prof);
        const std::int32_t right =
            buildRange(idx, mid + 1, hi, depth + 1, prof);
        nodes_[static_cast<std::size_t>(me)].left = left;
        nodes_[static_cast<std::size_t>(me)].right = right;
        return me;
    }

    void
    radiusRecurse(std::int32_t node, const geom::Vec3 &query,
                  double radius2, std::vector<std::uint32_t> &out,
                  KernelProfiler &prof, std::uint64_t &steps) const
    {
        if (node < 0)
            return;
        const Node &n = nodes_[static_cast<std::size_t>(node)];
        const pc::Point &p = (*cloud_)[n.pointIdx];
        ++steps;
        if (prof.tracing()) {
            prof.load(regionNodes,
                      static_cast<std::size_t>(node) * sizeof(Node),
                      sizeof(Node));
            prof.load(regionPoints, n.pointIdx * sizeof(pc::Point),
                      sizeof(pc::Point));
        }
        const double d2 = geom::squaredDistance(query, p.vec());
        const bool inside = d2 <= radius2;
        prof.branch(siteInRadius, inside);
        if (inside)
            out.push_back(n.pointIdx);
        const double q =
            n.axis == 0 ? query.x : (n.axis == 1 ? query.y : query.z);
        const double delta = q - double(n.split);
        const std::int32_t near = delta <= 0.0 ? n.left : n.right;
        const std::int32_t far = delta <= 0.0 ? n.right : n.left;
        radiusRecurse(near, query, radius2, out, prof, steps);
        if (delta * delta <= radius2)
            radiusRecurse(far, query, radius2, out, prof, steps);
    }

    const pc::PointCloud *cloud_ = nullptr;
    std::vector<Node> nodes_;
    std::int32_t root_ = -1;
};

// The logical node stride is the size of the original node.
static_assert(sizeof(ReferenceKdTree::Node) ==
              pc::KdTree::kProbeNodeBytes);

/**
 * Build both trees over @p cloud inside one traced invocation, run
 * @p queries through both and compare results and counters after
 * every query.
 */
void
checkKdTree(const pc::PointCloud &cloud,
            const std::vector<geom::Vec3> &queries,
            const std::vector<double> &radii)
{
    NodeArchState ref_arch = tracingState();
    NodeArchState got_arch = tracingState();
    ref_arch.beginInvocation();
    got_arch.beginInvocation();
    ReferenceKdTree ref;
    pc::KdTree got;
    ref.build(cloud, KernelProfiler(&ref_arch));
    got.build(cloud, KernelProfiler(&got_arch));
    ASSERT_EQ(got.size(), cloud.size());
    expectSameArch(ref_arch, got_arch);

    std::vector<std::uint32_t> ref_found;
    std::vector<std::uint32_t> got_found = {7, 7}; // cleared first
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const double radius = radii[q % radii.size()];
        const std::size_t ref_n = ref.radiusSearch(
            queries[q], radius, ref_found, KernelProfiler(&ref_arch));
        const std::size_t got_n = got.radiusSearch(
            queries[q], radius, got_found, KernelProfiler(&got_arch));
        ASSERT_EQ(ref_n, got_n) << "query " << q;
        ASSERT_EQ(ref_found, got_found) << "query " << q;
    }
    ref_arch.endInvocation();
    got_arch.endInvocation();
    expectSameArch(ref_arch, got_arch);
}

pc::PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    pc::PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.push_back(pc::Point::fromVec(
            {rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
             rng.uniform(-2.0, 2.0)}));
    return cloud;
}

TEST(KernelOracle, KdTreeRadiusSearchMatchesRecursion)
{
    for (const std::size_t n : {2u, 3u, 10u, 101u, 1409u}) {
        const pc::PointCloud cloud = randomCloud(n, 31 + n);
        util::Rng rng(41 + n);
        std::vector<geom::Vec3> queries;
        for (std::size_t i = 0; i < cloud.size(); i += 3)
            queries.push_back(cloud[i].vec()); // clustering's queries
        for (int i = 0; i < 60; ++i)
            queries.push_back({rng.uniform(-25.0, 25.0),
                               rng.uniform(-25.0, 25.0),
                               rng.uniform(-3.0, 3.0)});
        checkKdTree(cloud, queries, {0.5, 0.0, 2.0, 6.0, 100.0});
    }
}

TEST(KernelOracle, KdTreeDuplicatesAndDegenerateClouds)
{
    // Coincident points and points on shared splitting planes take
    // the delta == 0 path on every level.
    pc::PointCloud grid;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j)
            for (int k = 0; k < 3; ++k) {
                grid.push_back(
                    pc::Point::fromVec({double(i), double(j), 0.5 * k}));
                grid.push_back(
                    pc::Point::fromVec({double(i), double(j), 0.5 * k}));
            }
    std::vector<geom::Vec3> queries;
    for (std::size_t i = 0; i < grid.size(); i += 5)
        queries.push_back(grid[i].vec());
    queries.push_back({2.5, 2.5, 0.5});
    checkKdTree(grid, queries, {1.0, 0.0, 1.5, 0.5});

    // Empty and one-point clouds.
    checkKdTree(pc::PointCloud{}, {{0, 0, 0}, {1, 1, 1}}, {5.0});
    pc::PointCloud one;
    one.push_back(pc::Point::fromVec({1, 1, 1}));
    checkKdTree(one, {{0, 0, 0}, {1, 1, 1}, {9, 9, 9}}, {2.0, 0.0});
}

// ---------------------------------------------------------------
// NDT voxel grid: the unordered_map lookup.
// ---------------------------------------------------------------

class ReferenceVoxelGrid
{
  public:
    using Voxel = pc::GaussianVoxelGrid::Voxel;

    void
    build(const pc::PointCloud &cloud, double leaf,
          KernelProfiler prof)
    {
        leaf_ = leaf;
        voxels_.clear();
        struct Acc
        {
            geom::Vec3 sum;
            geom::Mat3 outerSum;
            std::uint32_t count = 0;
        };
        std::unordered_map<pc::VoxelKey, Acc, pc::VoxelKeyHash> accs;
        for (const pc::Point &p : cloud.points) {
            const geom::Vec3 v = p.vec();
            Acc &acc = accs[pc::voxelKeyOf(v, leaf)];
            acc.sum += v;
            acc.outerSum += geom::outer(v, v);
            ++acc.count;
        }
        // avlint: allow(unordered-iter)
        for (const auto &[key, acc] : accs) {
            if (acc.count < pc::GaussianVoxelGrid::minPointsPerVoxel)
                continue;
            const double n = static_cast<double>(acc.count);
            Voxel voxel;
            voxel.count = acc.count;
            voxel.mean = acc.sum / n;
            geom::Mat3 cov = acc.outerSum * (1.0 / n) -
                             geom::outer(voxel.mean, voxel.mean);
            cov = cov * (n / (n - 1.0));
            voxel.covariance = geom::regularizeCovariance(cov);
            bool ok = false;
            voxel.inverseCovariance =
                geom::inverse3(voxel.covariance, &ok);
            if (!ok)
                continue;
            voxels_.emplace(key, voxel);
        }
        uarch::OpCounts ops;
        ops.loads = 10 * cloud.size();
        ops.stores = 14 * cloud.size();
        ops.branches = 2 * cloud.size();
        ops.intAlu = 8 * cloud.size();
        ops.fpAlu = 24 * cloud.size() + 120 * voxels_.size();
        ops.fpDiv = 4 * voxels_.size();
        prof.addOps(ops);
        prof.bulkBranches(2 * cloud.size());
    }

    const Voxel *
    lookup(const geom::Vec3 &p, KernelProfiler prof) const
    {
        const auto it = voxels_.find(pc::voxelKeyOf(p, leaf_));
        if (it == voxels_.end())
            return nullptr;
        if (prof.tracing())
            prof.load(regionVoxels, voxelOffset(it->first),
                      sizeof(Voxel));
        return &it->second;
    }

    void
    neighborhood(const geom::Vec3 &p, std::vector<const Voxel *> &out,
                 KernelProfiler prof) const
    {
        out.clear();
        const pc::VoxelKey c = pc::voxelKeyOf(p, leaf_);
        static const std::int32_t offsets[7][3] = {
            {0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
            {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
        for (const auto &off : offsets) {
            const pc::VoxelKey k{c.x + off[0], c.y + off[1],
                                 c.z + off[2]};
            const auto it = voxels_.find(k);
            const bool hit = it != voxels_.end();
            prof.branch(0x52010, hit);
            if (hit) {
                if (prof.tracing())
                    prof.load(regionVoxels, voxelOffset(k), 96);
                out.push_back(&it->second);
            }
        }
        if (prof.tracing()) {
            prof.hotLoads(40);
            prof.hotStores(8);
        }
        uarch::OpCounts ops;
        ops.loads = 14;
        ops.branches = 7;
        ops.intAlu = 21;
        ops.other = 7;
        prof.addOps(ops);
    }

    std::size_t voxelCount() const { return voxels_.size(); }

  private:
    static constexpr KernelProfiler::Region regionVoxels = 19;

    static std::uint64_t
    voxelOffset(const pc::VoxelKey &key)
    {
        return (pc::VoxelKeyHash{}(key) & 0xffffffu) * 128;
    }

    std::unordered_map<pc::VoxelKey, Voxel, pc::VoxelKeyHash> voxels_;
    double leaf_ = 2.0;
};

/** Bitwise-equal voxel statistics (the same voxel, built alike). */
void
expectSameVoxel(const pc::GaussianVoxelGrid::Voxel *ref,
                const pc::GaussianVoxelGrid::Voxel *got)
{
    ASSERT_EQ(ref == nullptr, got == nullptr);
    if (ref == nullptr)
        return;
    EXPECT_EQ(ref->count, got->count);
    EXPECT_EQ(ref->mean.x, got->mean.x);
    EXPECT_EQ(ref->mean.y, got->mean.y);
    EXPECT_EQ(ref->mean.z, got->mean.z);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(ref->covariance(r, c), got->covariance(r, c));
            EXPECT_EQ(ref->inverseCovariance(r, c),
                      got->inverseCovariance(r, c));
        }
    }
}

void
checkVoxelGrid(const pc::PointCloud &map, double leaf,
               const std::vector<geom::Vec3> &queries)
{
    NodeArchState ref_arch = tracingState();
    NodeArchState got_arch = tracingState();
    ref_arch.beginInvocation();
    got_arch.beginInvocation();
    ReferenceVoxelGrid ref;
    pc::GaussianVoxelGrid got;
    ref.build(map, leaf, KernelProfiler(&ref_arch));
    got.build(map, leaf, KernelProfiler(&got_arch));
    ASSERT_EQ(ref.voxelCount(), got.voxelCount());

    std::vector<const pc::GaussianVoxelGrid::Voxel *> ref_hood;
    std::vector<const pc::GaussianVoxelGrid::Voxel *> got_hood;
    std::size_t hits = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        ref.neighborhood(queries[q], ref_hood,
                         KernelProfiler(&ref_arch));
        got.neighborhood(queries[q], got_hood,
                         KernelProfiler(&got_arch));
        ASSERT_EQ(ref_hood.size(), got_hood.size()) << "query " << q;
        for (std::size_t i = 0; i < ref_hood.size(); ++i)
            expectSameVoxel(ref_hood[i], got_hood[i]);
        hits += ref_hood.size();
        expectSameVoxel(
            ref.lookup(queries[q], KernelProfiler(&ref_arch)),
            got.lookup(queries[q], KernelProfiler(&got_arch)));
    }
    ref_arch.endInvocation();
    got_arch.endInvocation();
    expectSameArch(ref_arch, got_arch);
    if (ref.voxelCount() > 0) {
        EXPECT_GT(hits, 0u);
    }
}

TEST(KernelOracle, VoxelNeighborhoodMatchesUnorderedMap)
{
    // Clumped map points, so voxels pass the 5-point minimum, with
    // gaps where neighbours are missing; negative coordinates too.
    util::Rng rng(51);
    pc::PointCloud map;
    for (int c = 0; c < 300; ++c) {
        const geom::Vec3 center{rng.uniform(-30.0, 30.0),
                                rng.uniform(-30.0, 30.0),
                                rng.uniform(-4.0, 4.0)};
        const int n = static_cast<int>(rng.uniformInt(1, 40));
        for (int i = 0; i < n; ++i)
            map.push_back(pc::Point::fromVec(
                {center.x + rng.gaussian(0.0, 0.6),
                 center.y + rng.gaussian(0.0, 0.6),
                 center.z + rng.gaussian(0.0, 0.3)}));
    }
    std::vector<geom::Vec3> queries;
    for (std::size_t i = 0; i < map.size(); i += 4)
        queries.push_back(map[i].vec());
    for (int i = 0; i < 500; ++i)
        queries.push_back({rng.uniform(-40.0, 40.0),
                           rng.uniform(-40.0, 40.0),
                           rng.uniform(-8.0, 8.0)});
    // Exact voxel boundaries (leaf 2: multiples of 2 are edges).
    for (int i = -6; i <= 6; ++i)
        queries.push_back({2.0 * i, -2.0 * i, 0.0});
    // Far from every voxel: all seven neighbours missing.
    queries.push_back({1e4, -1e4, 50.0});
    for (const double leaf : {2.0, 1.0, 3.5})
        checkVoxelGrid(map, leaf, queries);
}

TEST(KernelOracle, VoxelGridEmptyAndOnePointMaps)
{
    const std::vector<geom::Vec3> queries = {{0, 0, 0}, {1, 1, 1}};
    checkVoxelGrid(pc::PointCloud{}, 2.0, queries);
    pc::PointCloud one;
    one.push_back(pc::Point::fromVec({1, 1, 1}));
    checkVoxelGrid(one, 2.0, queries); // below minPointsPerVoxel
}

// ---------------------------------------------------------------
// Ray ground filter: indices gathered versus clouds built in place.
// ---------------------------------------------------------------

bool
samePoint(const pc::Point &a, const pc::Point &b)
{
    return a.x == b.x && a.y == b.y && a.z == b.z &&
           a.intensity == b.intensity && a.ring == b.ring;
}

void
expectSameCloud(const pc::PointCloud &ref, const pc::PointCloud &got)
{
    EXPECT_EQ(ref.stampNs, got.stampNs);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(samePoint(ref[i], got[i])) << "point " << i;
}

TEST(KernelOracle, RayGroundIndicesGatherToTheFilteredClouds)
{
    // Ground, obstacles, self-returns inside minPointDistance and
    // points above the clipping height, then the empty scan.
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        util::Rng rng(seed);
        pc::PointCloud scan;
        scan.stampNs = 1000 * seed;
        for (int i = 0; i < 6000; ++i) {
            const double r = rng.uniform(0.5, 40.0);
            const double a = rng.uniform(-M_PI, M_PI);
            const double z = rng.uniform(0.0, 1.0) < 0.7
                                 ? rng.gaussian(0.0, 0.03)
                                 : rng.uniform(0.0, 4.5);
            scan.push_back(pc::Point::fromVec(
                {r * std::cos(a), r * std::sin(a), z},
                static_cast<float>(rng.uniform(0.0, 1.0)),
                static_cast<std::uint16_t>(i % 16)));
        }
        NodeArchState ref_arch = tracingState();
        NodeArchState got_arch = tracingState();
        ref_arch.beginInvocation();
        got_arch.beginInvocation();
        const perception::GroundSplit ref = perception::rayGroundFilter(
            scan, perception::RayGroundConfig(),
            KernelProfiler(&ref_arch));
        const perception::GroundIndices got =
            perception::rayGroundIndices(scan,
                                         perception::RayGroundConfig(),
                                         KernelProfiler(&got_arch));
        ref_arch.endInvocation();
        got_arch.endInvocation();
        const perception::GroundSplit gathered = got.gather(scan);
        expectSameCloud(ref.ground, gathered.ground);
        expectSameCloud(ref.noGround, gathered.noGround);
        expectSameArch(ref_arch, got_arch);
        EXPECT_GT(ref.ground.size(), 0u);
        EXPECT_GT(ref.noGround.size(), 0u);
    }
    const perception::GroundSplit empty =
        perception::rayGroundIndices(pc::PointCloud{},
                                     perception::RayGroundConfig())
            .gather(pc::PointCloud{});
    EXPECT_TRUE(empty.ground.empty());
    EXPECT_TRUE(empty.noGround.empty());
}

} // namespace
