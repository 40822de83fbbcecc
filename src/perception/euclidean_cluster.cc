#include "perception/euclidean_cluster.hh"

#include <algorithm>
#include <cmath>

#include "pointcloud/kdtree.hh"

namespace av::perception {

namespace {

enum Site : std::uint64_t {
    siteUnvisited = 0x73001,
    siteClusterAccept = 0x73002,
};

/** Logical probe regions (block 24-31, see profiler.hh). */
constexpr uarch::KernelProfiler::Region regionVisited = 24;
constexpr uarch::KernelProfiler::Region regionMembers = 25;

} // namespace

pc::PointCloud
cropForClustering(const pc::PointCloud &cloud,
                  const ClusterConfig &config,
                  uarch::KernelProfiler prof)
{
    pc::PointCloud out;
    out.stampNs = cloud.stampNs;
    const double r2 = config.detectRange * config.detectRange;
    for (const pc::Point &p : cloud.points) {
        if (p.z > config.clipHeight)
            continue;
        if (double(p.x) * p.x + double(p.y) * p.y > r2)
            continue;
        out.push_back(p);
    }
    uarch::OpCounts ops;
    ops.loads = 4 * cloud.size();
    ops.stores = 2 * out.size();
    ops.branches = 2 * cloud.size();
    ops.fpAlu = 4 * cloud.size();
    prof.addOps(ops);
    prof.bulkBranches(2 * cloud.size());
    return out;
}

std::vector<Cluster>
euclideanCluster(const pc::PointCloud &cloud,
                 const ClusterConfig &config,
                 uarch::KernelProfiler prof)
{
    std::vector<Cluster> clusters;
    if (cloud.empty())
        return clusters;

    pc::KdTree tree;
    tree.build(cloud, prof);

    std::vector<std::uint8_t> visited(cloud.size(), 0);
    std::vector<std::uint32_t> frontier;
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> found;
    const bool tracing = prof.tracing();

    for (std::uint32_t seed = 0; seed < cloud.size(); ++seed) {
        const bool fresh = !visited[seed];
        prof.branch(siteUnvisited, fresh);
        if (!fresh)
            continue;
        visited[seed] = 1;
        members.clear();
        members.push_back(seed);
        frontier.clear();
        frontier.push_back(seed);

        while (!frontier.empty() &&
               members.size() < config.maxPoints) {
            const std::uint32_t idx = frontier.back();
            frontier.pop_back();
            tree.radiusSearch(cloud[idx].vec(), config.tolerance,
                              found, prof);
            if (tracing)
                prof.hotLoads(3 * found.size());
            for (const std::uint32_t n : found) {
                if (tracing)
                    prof.load(regionVisited, n, 1);
                if (visited[n])
                    continue;
                visited[n] = 1;
                if (tracing) {
                    // The visited flags and the growing member /
                    // frontier vectors all write scattered lines —
                    // the poor write locality of Table VII.
                    prof.store(regionVisited, n, 1);
                    prof.store(regionMembers,
                               members.size() *
                                   sizeof(std::uint32_t),
                               sizeof(std::uint32_t));
                }
                members.push_back(n);
                frontier.push_back(n);
            }
        }

        if (members.size() < config.minPoints)
            continue;

        // Geometry: centroid, planar principal axis, extents.
        geom::Vec3 centroid;
        for (const std::uint32_t i : members)
            centroid += cloud[i].vec();
        centroid = centroid /
                   static_cast<double>(members.size());

        double sxx = 0, sxy = 0, syy = 0;
        double z_min = 1e9, z_max = -1e9;
        for (const std::uint32_t i : members) {
            const double dx = cloud[i].x - centroid.x;
            const double dy = cloud[i].y - centroid.y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
            z_min = std::min(z_min, double(cloud[i].z));
            z_max = std::max(z_max, double(cloud[i].z));
        }
        const double yaw =
            0.5 * std::atan2(2.0 * sxy, sxx - syy);

        double e_min = 1e9, e_max = -1e9;
        double f_min = 1e9, f_max = -1e9;
        const double c = std::cos(yaw), s = std::sin(yaw);
        for (const std::uint32_t i : members) {
            const double dx = cloud[i].x - centroid.x;
            const double dy = cloud[i].y - centroid.y;
            const double u = c * dx + s * dy;
            const double v = -s * dx + c * dy;
            e_min = std::min(e_min, u);
            e_max = std::max(e_max, u);
            f_min = std::min(f_min, v);
            f_max = std::max(f_max, v);
        }

        Cluster cl;
        cl.centroid = centroid;
        cl.yaw = yaw;
        cl.length = e_max - e_min;
        cl.width = f_max - f_min;
        cl.height = z_max - z_min;
        cl.pointCount =
            static_cast<std::uint32_t>(members.size());

        const bool accept =
            cl.height >= config.minHeight &&
            std::max(cl.length, cl.width) <= config.maxObjectDim;
        prof.branch(siteClusterAccept, accept);
        if (accept)
            clusters.push_back(cl);

        // Geometry passes: three sweeps over the member points.
        uarch::OpCounts geo;
        geo.loads = 9 * members.size();
        geo.fpAlu = 22 * members.size();
        geo.branches = 4 * members.size();
        geo.intAlu = 3 * members.size();
        geo.fpDiv = 3;
        prof.addOps(geo);
    }
    prof.bulkBranches(2 * cloud.size());
    return clusters;
}

} // namespace av::perception
