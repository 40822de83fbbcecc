/**
 * @file
 * Voxel-grid structures: centroid downsampling (the voxel_grid_filter
 * node) and per-voxel Gaussian statistics (the map representation NDT
 * matching searches, see perception/ndt_matching).
 */

#ifndef AVSCOPE_POINTCLOUD_VOXEL_GRID_HH
#define AVSCOPE_POINTCLOUD_VOXEL_GRID_HH

#include <cstdint>
#include <vector>

#include "geom/mat.hh"
#include "pointcloud/cloud.hh"
#include "uarch/profiler.hh"

namespace av::pc {

/** Integer voxel coordinate key. */
struct VoxelKey
{
    std::int32_t x = 0;
    std::int32_t y = 0;
    std::int32_t z = 0;

    bool operator==(const VoxelKey &o) const
    {
        return x == o.x && y == o.y && z == o.z;
    }
};

/** Hash for VoxelKey (large-prime mix, PCL-style). */
struct VoxelKeyHash
{
    std::size_t
    operator()(const VoxelKey &k) const
    {
        return static_cast<std::size_t>(k.x) * 73856093u ^
               static_cast<std::size_t>(k.y) * 19349663u ^
               static_cast<std::size_t>(k.z) * 83492791u;
    }
};

/** Voxel key of a point at the given leaf size. */
VoxelKey voxelKeyOf(const geom::Vec3 &p, double leaf);

/**
 * Centroid voxel-grid downsampling — the algorithm inside Autoware's
 * voxel_grid_filter node. Replaces each occupied voxel's points by
 * their centroid.
 *
 * @param in   input cloud
 * @param leaf cubic voxel edge length (meters)
 * @param prof optional instrumentation
 */
PointCloud voxelGridDownsample(const PointCloud &in, double leaf,
                               uarch::KernelProfiler prof =
                                   uarch::KernelProfiler());

/**
 * Downsample @p parts as their concatenation, in order: output
 * points, their order, op counts and the probe stream are those of
 * one cloud holding every part's points, and the stamp is 0, as a
 * cloud built by appending them would carry. A caller with several
 * clouds (the mapping pass's keyframe scans) thus need not build
 * that cloud. The parts are consumed: each is freed once its points
 * are accumulated, so the input shrinks as the grid grows.
 */
PointCloud voxelGridDownsample(std::vector<PointCloud> parts,
                               double leaf,
                               uarch::KernelProfiler prof =
                                   uarch::KernelProfiler());

/**
 * Per-voxel Gaussian statistics over a (map) cloud: mean, covariance
 * and its inverse, regularized per Magnusson so NDT stays stable on
 * degenerate voxels. Voxels with fewer than minPointsPerVoxel points
 * are discarded.
 *
 * The probe stream is the contract; the host layout is not. Voxels
 * live in one flat array, in the order their first point appears in
 * the cloud, indexed by an open-addressing key table; build()
 * accumulates in the same kind of table. Probes name each voxel by
 * its key (a hashed, line-granular logical offset), so the stream
 * does not depend on where a voxel is stored.
 */
class GaussianVoxelGrid
{
  public:
    /** One voxel's sufficient statistics. */
    struct Voxel
    {
        geom::Vec3 mean;
        geom::Mat3 covariance;
        geom::Mat3 inverseCovariance;
        std::uint32_t count = 0;
    };

    static constexpr std::uint32_t minPointsPerVoxel = 5;

    /**
     * Build the grid.
     * @param cloud map points (world frame)
     * @param leaf  voxel edge (meters); NDT default is 2 m
     */
    void build(const PointCloud &cloud, double leaf,
               uarch::KernelProfiler prof = uarch::KernelProfiler());

    /** Voxel containing @p p, or nullptr. */
    const Voxel *lookup(const geom::Vec3 &p,
                        uarch::KernelProfiler prof =
                            uarch::KernelProfiler()) const;

    /**
     * The voxel containing @p p plus face-neighbours that exist —
     * the candidate set NDT scores a point against.
     */
    void neighborhood(const geom::Vec3 &p,
                      std::vector<const Voxel *> &out,
                      uarch::KernelProfiler prof =
                          uarch::KernelProfiler()) const;

    std::size_t voxelCount() const { return voxels_.size(); }

  private:
    static constexpr std::uint32_t kEmpty = 0xffffffffu;

    /** Key-table entry: a voxel key and its index in voxels_. */
    struct Slot
    {
        VoxelKey key;
        std::uint32_t voxel = kEmpty;
    };

    /** Empty the key table and size it for @p entries keys. */
    void resetTable(std::size_t entries);

    /**
     * Index of the slot holding @p key, or of the empty slot where it
     * belongs (Slot::voxel == kEmpty). The table must not be empty.
     */
    std::size_t slotIndex(const VoxelKey &key) const;

    /** Voxel with key @p key, or nullptr. */
    const Voxel *find(const VoxelKey &key) const;

    std::vector<Voxel> voxels_;
    /** Linear-probing table, power-of-two size, at most half full. */
    std::vector<Slot> slots_;
    unsigned slotShift_ = 64; ///< 64 - log2(slots_.size())
    double leaf_ = 2.0;
};

} // namespace av::pc

#endif // AVSCOPE_POINTCLOUD_VOXEL_GRID_HH
