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

/** A downsampling voxel's running sums. */
struct CentroidAcc
{
    geom::Vec3 sum;
    float intensity = 0.0f;
    std::uint32_t count = 0;
};

using CentroidGrid =
    std::unordered_map<VoxelKey, CentroidAcc, VoxelKeyHash>;

/**
 * An empty grid for @p points input points. The reserve fixes the
 * bucket count and so the emit order: a cloud and parts holding the
 * same points get the same one.
 */
CentroidGrid
centroidGrid(std::size_t points)
{
    CentroidGrid grid;
    grid.reserve(points / 4 + 16);
    return grid;
}

/**
 * Add @p in's points to @p grid. @p base is the index of its first
 * point in the whole input, which the probes name.
 */
void
accumulate(CentroidGrid &grid, const PointCloud &in, std::uint64_t base,
           double leaf, uarch::KernelProfiler &prof)
{
    for (const Point &p : in.points) {
        const VoxelKey key = voxelKeyOf(p.vec(), leaf);
        CentroidAcc &acc = grid[key];
        const bool fresh = acc.count == 0;
        prof.branch(siteVoxelNew, fresh);
        if (prof.tracing()) {
            prof.load(regionInPoints,
                      (base + static_cast<std::uint64_t>(
                                  &p - in.points.data())) *
                          sizeof(Point),
                      sizeof(Point));
            prof.store(regionGrid, voxelOffset(key), sizeof(CentroidAcc));
            prof.hotLoads(8);
            prof.hotStores(4);
        }
        acc.sum += p.vec();
        acc.intensity += p.intensity;
        ++acc.count;
    }
}

/**
 * One centroid per voxel of @p grid, with the op counts of
 * downsampling @p points input points into it.
 */
PointCloud
emitCentroids(const CentroidGrid &grid, std::size_t points,
              uarch::KernelProfiler &prof)
{
    PointCloud out;
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
    ops.loads = 6 * points + 2 * grid.size();
    ops.stores = 4 * points + 2 * grid.size();
    ops.branches = 3 * points + grid.size();
    ops.intAlu = 8 * points;
    ops.fpAlu = 6 * points + 4 * grid.size();
    ops.fpDiv = grid.size();
    prof.addOps(ops);
    prof.bulkBranches(2 * points);
    return out;
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
    CentroidGrid grid = centroidGrid(in.size());
    accumulate(grid, in, 0, leaf, prof);
    PointCloud out = emitCentroids(grid, in.size(), prof);
    out.stampNs = in.stampNs;
    return out;
}

PointCloud
voxelGridDownsample(std::vector<PointCloud> parts, double leaf,
                    uarch::KernelProfiler prof)
{
    std::size_t total = 0;
    for (const PointCloud &part : parts)
        total += part.size();
    CentroidGrid grid = centroidGrid(total);
    std::uint64_t base = 0;
    for (PointCloud &part : parts) {
        accumulate(grid, part, base, leaf, prof);
        base += part.size();
        // Its points are in the grid now: free them before the next
        // part grows the grid.
        part = PointCloud();
    }
    return emitCentroids(grid, total, prof);
}

void
GaussianVoxelGrid::build(const PointCloud &cloud, double leaf,
                         uarch::KernelProfiler prof)
{
    leaf_ = leaf;
    voxels_.clear();

    struct Acc
    {
        VoxelKey key;
        geom::Vec3 sum;
        geom::Mat3 outerSum;
        std::uint32_t count = 0;
    };
    // Accumulators in the order their first point appears, found
    // through the key table (whose Slot::voxel indexes accs here).
    std::vector<Acc> accs;
    resetTable(cloud.size() / 8 + 16);
    for (const Point &p : cloud.points) {
        const geom::Vec3 v = p.vec();
        const VoxelKey key = voxelKeyOf(v, leaf);
        Slot &slot = slots_[slotIndex(key)];
        if (slot.voxel == kEmpty) {
            slot = Slot{key, static_cast<std::uint32_t>(accs.size())};
            accs.push_back(Acc{key, {}, {}, 0});
        }
        Acc &acc = accs[slot.voxel];
        acc.sum += v;
        acc.outerSum += geom::outer(v, v);
        ++acc.count;
        if (2 * accs.size() > slots_.size()) {
            resetTable(2 * accs.size());
            for (std::uint32_t i = 0; i < accs.size(); ++i)
                slots_[slotIndex(accs[i].key)] = Slot{accs[i].key, i};
        }
    }

    // Sized for every accumulator, so voxels_ never regrows; sparse
    // voxels just leave its tail unused.
    std::vector<VoxelKey> keys;
    keys.reserve(accs.size());
    voxels_.reserve(accs.size());
    for (const Acc &acc : accs) {
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
        keys.push_back(acc.key);
    }

    resetTable(voxels_.size());
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        slots_[slotIndex(keys[i])] = Slot{keys[i], i};

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

void
GaussianVoxelGrid::resetTable(std::size_t entries)
{
    std::size_t size = 8;
    slotShift_ = 61;
    while (size < 2 * entries) {
        size *= 2;
        --slotShift_;
    }
    slots_.assign(size, Slot{});
}

std::size_t
GaussianVoxelGrid::slotIndex(const VoxelKey &key) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = slotOf(key, slotShift_);
    while (slots_[s].voxel != kEmpty && !(slots_[s].key == key))
        s = (s + 1) & mask;
    return s;
}

const GaussianVoxelGrid::Voxel *
GaussianVoxelGrid::find(const VoxelKey &key) const
{
    if (slots_.empty())
        return nullptr;
    const Slot &slot = slots_[slotIndex(key)];
    return slot.voxel == kEmpty ? nullptr : &voxels_[slot.voxel];
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
