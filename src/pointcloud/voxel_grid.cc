#include "pointcloud/voxel_grid.hh"

#include <cmath>
#include <unordered_map>

namespace av::pc {

namespace {

enum Site : std::uint64_t {
    siteVoxelNew = 0x52001,
    siteVoxelKeep = 0x52002,
};

/** Logical probe regions (block 16-23, see profiler.hh). */
constexpr uarch::KernelProfiler::Region regionInPoints = 16;
constexpr uarch::KernelProfiler::Region regionGrid = 17;
constexpr uarch::KernelProfiler::Region regionOutPoints = 18;
constexpr uarch::KernelProfiler::Region regionVoxels = 19;

/**
 * Logical offset of a voxel-map node. Hash-table nodes have no
 * stable index, but the key itself is logical identity: hashing it
 * into a bounded, line-granular space reproduces the scattered
 * node-allocation layout deterministically.
 */
std::uint64_t
voxelOffset(const VoxelKey &key)
{
    return (VoxelKeyHash{}(key) & 0xffffffu) * 128;
}

/**
 * Home slot of @p key in a key table of 2^(64 - shift) slots:
 * Fibonacci hashing of the key hash, which spreads neighbouring
 * keys' weak low bits over the table.
 */
std::size_t
slotOf(const VoxelKey &key, unsigned shift)
{
    return static_cast<std::size_t>(
        (std::uint64_t{VoxelKeyHash{}(key)} * 0x9e3779b97f4a7c15ull) >>
        shift);
}

} // namespace

VoxelKey
voxelKeyOf(const geom::Vec3 &p, double leaf)
{
    return {static_cast<std::int32_t>(std::floor(p.x / leaf)),
            static_cast<std::int32_t>(std::floor(p.y / leaf)),
            static_cast<std::int32_t>(std::floor(p.z / leaf))};
}

PointCloud
voxelGridDownsample(const PointCloud &in, double leaf,
                    uarch::KernelProfiler prof)
{
    struct Acc
    {
        geom::Vec3 sum;
        float intensity = 0.0f;
        std::uint32_t count = 0;
    };
    std::unordered_map<VoxelKey, Acc, VoxelKeyHash> grid;
    grid.reserve(in.size() / 4 + 16);

    for (const Point &p : in.points) {
        const VoxelKey key = voxelKeyOf(p.vec(), leaf);
        Acc &acc = grid[key];
        const bool fresh = acc.count == 0;
        prof.branch(siteVoxelNew, fresh);
        if (prof.tracing()) {
            prof.load(regionInPoints,
                      static_cast<std::uint64_t>(
                          &p - in.points.data()) *
                          sizeof(Point),
                      sizeof(Point));
            prof.store(regionGrid, voxelOffset(key), sizeof(Acc));
            prof.hotLoads(8);
            prof.hotStores(4);
        }
        acc.sum += p.vec();
        acc.intensity += p.intensity;
        ++acc.count;
    }

    PointCloud out;
    out.stampNs = in.stampNs;
    out.points.reserve(grid.size());
    // Hash order is stable for a fixed standard library and
    // insertion sequence, so same-binary replays stay bit-identical;
    // the centroid emission order feeds no report directly.
    // avlint: allow(unordered-iter)
    for (const auto &[key, acc] : grid) {
        (void)key;
        const geom::Vec3 c =
            acc.sum / static_cast<double>(acc.count);
        out.points.push_back(Point::fromVec(
            c, acc.intensity / static_cast<float>(acc.count)));
        if (prof.tracing())
            prof.store(regionOutPoints,
                       (out.points.size() - 1) * sizeof(Point),
                       sizeof(Point));
    }

    // Abstract work: hashing + accumulation per input point, one
    // emit per occupied voxel.
    uarch::OpCounts ops;
    ops.loads = 6 * in.size() + 2 * grid.size();
    ops.stores = 4 * in.size() + 2 * grid.size();
    ops.branches = 3 * in.size() + grid.size();
    ops.intAlu = 8 * in.size();
    ops.fpAlu = 6 * in.size() + 4 * grid.size();
    ops.fpDiv = grid.size();
    prof.addOps(ops);
    prof.bulkBranches(2 * in.size());
    return out;
}

void
GaussianVoxelGrid::build(const PointCloud &cloud, double leaf,
                         uarch::KernelProfiler prof)
{
    leaf_ = leaf;
    voxels_.clear();
    slots_.clear();
    slotShift_ = 64;

    struct Acc
    {
        geom::Vec3 sum;
        geom::Mat3 outerSum;
        std::uint32_t count = 0;
    };
    std::unordered_map<VoxelKey, Acc, VoxelKeyHash> accs;
    accs.reserve(cloud.size() / 8 + 16);

    for (const Point &p : cloud.points) {
        const geom::Vec3 v = p.vec();
        Acc &acc = accs[voxelKeyOf(v, leaf)];
        acc.sum += v;
        acc.outerSum += geom::outer(v, v);
        ++acc.count;
    }

    // Sized for every accumulator, so voxels_ never regrows; sparse
    // voxels just leave its tail unused.
    std::vector<VoxelKey> keys;
    keys.reserve(accs.size());
    voxels_.reserve(accs.size());
    // Same-binary-deterministic for the reason above; voxel build
    // order does not reach any report.
    // avlint: allow(unordered-iter)
    for (const auto &[key, acc] : accs) {
        if (acc.count < minPointsPerVoxel)
            continue;
        const double n = static_cast<double>(acc.count);
        Voxel voxel;
        voxel.count = acc.count;
        voxel.mean = acc.sum / n;
        // cov = E[xx^T] - mean mean^T, with small-sample correction.
        geom::Mat3 cov =
            acc.outerSum * (1.0 / n) -
            geom::outer(voxel.mean, voxel.mean);
        cov = cov * (n / (n - 1.0));
        voxel.covariance = geom::regularizeCovariance(cov);
        bool ok = false;
        voxel.inverseCovariance = geom::inverse3(voxel.covariance, &ok);
        if (!ok)
            continue;
        voxels_.push_back(voxel);
        keys.push_back(key);
    }

    if (!voxels_.empty()) {
        std::size_t size = 8;
        slotShift_ = 61;
        while (size < 2 * voxels_.size()) {
            size *= 2;
            --slotShift_;
        }
        slots_.assign(size, Slot{});
        for (std::uint32_t i = 0; i < keys.size(); ++i) {
            std::size_t s = slotOf(keys[i], slotShift_);
            while (slots_[s].voxel != kEmpty)
                s = (s + 1) & (size - 1);
            slots_[s] = Slot{keys[i], i};
        }
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

const GaussianVoxelGrid::Voxel *
GaussianVoxelGrid::find(const VoxelKey &key) const
{
    if (slots_.empty())
        return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slotOf(key, slotShift_);; s = (s + 1) & mask) {
        const Slot &slot = slots_[s];
        if (slot.voxel == kEmpty)
            return nullptr;
        if (slot.key == key)
            return &voxels_[slot.voxel];
    }
}

const GaussianVoxelGrid::Voxel *
GaussianVoxelGrid::lookup(const geom::Vec3 &p,
                          uarch::KernelProfiler prof) const
{
    const VoxelKey key = voxelKeyOf(p, leaf_);
    const Voxel *voxel = find(key);
    if (voxel != nullptr && prof.tracing())
        prof.load(regionVoxels, voxelOffset(key), sizeof(Voxel));
    return voxel;
}

void
GaussianVoxelGrid::neighborhood(const geom::Vec3 &p,
                                std::vector<const Voxel *> &out,
                                uarch::KernelProfiler prof) const
{
    out.clear();
    const VoxelKey c = voxelKeyOf(p, leaf_);
    const bool tracing = prof.tracing();
    static const std::int32_t offsets[7][3] = {
        {0, 0, 0}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
        {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
    for (const auto &off : offsets) {
        const VoxelKey k{c.x + off[0], c.y + off[1], c.z + off[2]};
        const Voxel *voxel = find(k);
        const bool hit = voxel != nullptr;
        if (tracing) {
            prof.branch(0x52010, hit);
            // Only the mean + inverse covariance are touched in the
            // scoring loop (the full Voxel spans 3 lines).
            if (hit)
                prof.load(regionVoxels, voxelOffset(k), 96);
        }
        if (hit)
            out.push_back(voxel);
    }
    if (tracing) {
        prof.hotLoads(40); // hash probe locals, key math
        prof.hotStores(8);
    }
    uarch::OpCounts ops;
    ops.loads = 14;
    ops.branches = 7;
    ops.intAlu = 21;
    ops.other = 7;
    prof.addOps(ops);
}

} // namespace av::pc
