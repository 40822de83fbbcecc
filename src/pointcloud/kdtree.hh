/**
 * @file
 * 3-D kd-tree for radius queries.
 *
 * Euclidean clustering's radius searches dominate its runtime and —
 * per the paper's Table VII — give it the worst L1 locality of any
 * node. The tree is therefore instrumented: traversal reports node
 * loads and in-radius branches to the KernelProfiler so the cache
 * and branch models observe the true pointer-chasing pattern.
 *
 * The probe stream is the contract; the host layout is not. Nodes
 * are probed in preorder at a fixed logical stride
 * (kProbeNodeBytes), whatever sizeof(Node) is, so the host node can
 * carry its point's coordinates without moving one modelled miss.
 */

#ifndef AVSCOPE_POINTCLOUD_KDTREE_HH
#define AVSCOPE_POINTCLOUD_KDTREE_HH

#include <cstdint>
#include <vector>

#include "pointcloud/cloud.hh"
#include "uarch/profiler.hh"

namespace av::pc {

/**
 * Static kd-tree over a point cloud. Build once, query many times.
 */
class KdTree
{
  public:
    KdTree() = default;

    /**
     * Build from @p cloud. The tree copies the coordinates it needs,
     * so the cloud need not outlive it.
     * @param prof optional profiler charged with the build work
     */
    void build(const PointCloud &cloud,
               uarch::KernelProfiler prof = uarch::KernelProfiler());

    /** Number of indexed points. */
    std::size_t size() const { return nodes_.size(); }

    /**
     * Indices of all points within @p radius of @p query, appended
     * to @p out (cleared first).
     * @return number of results
     */
    std::size_t radiusSearch(const geom::Vec3 &query, double radius,
                             std::vector<std::uint32_t> &out,
                             uarch::KernelProfiler prof =
                                 uarch::KernelProfiler()) const;

    /**
     * Logical bytes per node in the probe address space: the size
     * of the original {split, pointIdx, left, right, axis} node.
     */
    static constexpr std::uint32_t kProbeNodeBytes = 20;

  private:
    struct Node
    {
        float pos[3];           ///< the point
        float split;            ///< pos[axis], the splitting plane
        std::uint32_t pointIdx; ///< index into the source cloud
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::uint8_t axis = 0;
    };

    std::vector<Node> nodes_;
    std::int32_t root_ = -1;

    std::int32_t buildRange(const PointCloud &cloud,
                            std::vector<std::uint32_t> &idx,
                            std::size_t lo, std::size_t hi, int depth,
                            uarch::KernelProfiler &prof);
};

} // namespace av::pc

#endif // AVSCOPE_POINTCLOUD_KDTREE_HH
