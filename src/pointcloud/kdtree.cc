#include "pointcloud/kdtree.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace av::pc {

namespace {

/** Static branch-site id for the predictor model. */
constexpr std::uint64_t siteInRadius = 0x51002;

/** Per-visited-node abstract op cost of a traversal step. */
const uarch::OpCounts stepOps{/*loads=*/12, /*stores=*/5,
                              /*branches=*/3, /*intAlu=*/3,
                              /*fpAlu=*/6, /*fpDiv=*/0, /*simd=*/0,
                              /*other=*/1};

/** Logical probe regions (block 8-15, see profiler.hh). */
constexpr uarch::KernelProfiler::Region regionNodes = 8;
constexpr uarch::KernelProfiler::Region regionPoints = 9;

/**
 * Search stack capacity. A median-split tree over fewer than 2^31
 * points is at most 31 levels deep, and the stack holds at most one
 * pending far child per level.
 */
constexpr std::size_t maxStack = 64;

} // namespace

void
KdTree::build(const PointCloud &cloud, uarch::KernelProfiler prof)
{
    nodes_.clear();
    nodes_.reserve(cloud.size());
    root_ = -1;
    if (cloud.empty())
        return;
    AV_ASSERT(cloud.size() < (std::size_t{1} << 31),
              "KdTree: cloud too large for int32 node ids");

    std::vector<std::uint32_t> idx(cloud.size());
    for (std::uint32_t i = 0; i < cloud.size(); ++i)
        idx[i] = i;
    root_ = buildRange(cloud, idx, 0, idx.size(), 0, prof);

    // Build cost: ~n log n median partitions, each touching the
    // index array and the point data.
    const std::uint64_t n = cloud.size();
    const std::uint64_t logn =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
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

std::int32_t
KdTree::buildRange(const PointCloud &cloud,
                   std::vector<std::uint32_t> &idx, std::size_t lo,
                   std::size_t hi, int depth,
                   uarch::KernelProfiler &prof)
{
    if (lo >= hi)
        return -1;
    const std::uint8_t axis = static_cast<std::uint8_t>(depth % 3);
    const std::size_t mid = (lo + hi) / 2;

    const auto coord = [&](std::uint32_t i) -> float {
        const Point &p = cloud[i];
        return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
    };
    std::nth_element(idx.begin() + lo, idx.begin() + mid,
                     idx.begin() + hi,
                     [&](std::uint32_t a, std::uint32_t b) {
                         return coord(a) < coord(b);
                     });

    const std::int32_t me = static_cast<std::int32_t>(nodes_.size());
    const Point &p = cloud[idx[mid]];
    nodes_.push_back(
        Node{{p.x, p.y, p.z}, coord(idx[mid]), idx[mid], -1, -1, axis});
    if (prof.tracing())
        prof.store(regionNodes,
                   std::uint64_t{kProbeNodeBytes} *
                       static_cast<std::uint64_t>(me),
                   kProbeNodeBytes);

    const std::int32_t left =
        buildRange(cloud, idx, lo, mid, depth + 1, prof);
    const std::int32_t right =
        buildRange(cloud, idx, mid + 1, hi, depth + 1, prof);
    nodes_[static_cast<std::size_t>(me)].left = left;
    nodes_[static_cast<std::size_t>(me)].right = right;
    return me;
}

std::size_t
KdTree::radiusSearch(const geom::Vec3 &query, double radius,
                     std::vector<std::uint32_t> &out,
                     uarch::KernelProfiler prof) const
{
    out.clear();
    if (root_ < 0)
        return 0;
    const double radius2 = radius * radius;
    const bool tracing = prof.tracing();

    // Preorder: a node, its near subtree, then its far subtree when
    // the query ball crosses the splitting plane. The loop descends
    // into near directly and stacks far until near's subtree is done.
    const double q[3] = {query.x, query.y, query.z};
    std::int32_t stack[maxStack];
    std::size_t top = 0;
    std::int32_t node = root_;
    std::uint64_t steps = 0;
    for (;;) {
        if (node < 0) {
            if (top == 0)
                break;
            node = stack[--top];
        }
        const Node &n = nodes_[static_cast<std::size_t>(node)];
        ++steps;
        const double d2 = geom::squaredDistance(
            query, geom::Vec3{n.pos[0], n.pos[1], n.pos[2]});
        const bool inside = d2 <= radius2;
        if (tracing) {
            prof.load(regionNodes,
                      std::uint64_t{kProbeNodeBytes} *
                          static_cast<std::uint64_t>(node),
                      kProbeNodeBytes);
            prof.load(regionPoints,
                      std::uint64_t{n.pointIdx} * sizeof(Point),
                      sizeof(Point));
            prof.branch(siteInRadius, inside);
        }
        if (inside)
            out.push_back(n.pointIdx);

        const double delta = q[n.axis] - double(n.split);
        const bool left_near = delta <= 0.0;
        const std::int32_t far = left_near ? n.right : n.left;
        if (far >= 0 && delta * delta <= radius2)
            stack[top++] = far;
        node = left_near ? n.left : n.right;
    }
    // Batched accounting: one call per query instead of per visited
    // node (the hot path must stay cheap when not tracing).
    prof.addOps(stepOps.scaled(steps));
    if (tracing) {
        prof.hotLoads(3 * steps);
        prof.hotStores(2 * steps);
        prof.bulkBranches(10 * steps);
    }
    return out.size();
}

} // namespace av::pc
