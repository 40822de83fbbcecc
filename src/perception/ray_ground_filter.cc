#include "perception/ray_ground_filter.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.hh"

namespace av::perception {

namespace {

enum Site : std::uint64_t {
    siteIsGround = 0x72001,
    siteSortCompare = 0x72002,
};

struct RadialPoint
{
    float radius;
    float z;
    std::uint32_t index;
};

/** Logical probe regions (block 64-71, see profiler.hh). */
constexpr uarch::KernelProfiler::Region regionScan = 64;
constexpr uarch::KernelProfiler::Region regionRays = 65;
constexpr uarch::KernelProfiler::Region regionGround = 66;
constexpr uarch::KernelProfiler::Region regionNoGround = 67;

/** 64 KiB of logical space per azimuth ray. */
std::uint64_t
rayOffset(std::uint64_t ray, std::uint64_t element)
{
    return (ray << 16) + element * sizeof(RadialPoint);
}

/**
 * The filter proper: calls @p emit(is_ground, index) for each scan
 * point it classifies, in output order.
 */
template <class Emit>
void
splitRays(const pc::PointCloud &scan, const RayGroundConfig &config,
          uarch::KernelProfiler prof, Emit emit)
{
    // Bucket into azimuth rays.
    std::vector<std::vector<RadialPoint>> rays(config.rays);
    for (std::uint32_t i = 0; i < scan.size(); ++i) {
        const pc::Point &p = scan[i];
        const double r = std::hypot(p.x, p.y);
        if (r < config.minPointDistance)
            continue;
        const double az = std::atan2(p.y, p.x) + M_PI;
        auto bucket = static_cast<std::uint32_t>(
            az / (2.0 * M_PI) * config.rays);
        if (bucket >= config.rays)
            bucket = config.rays - 1;
        rays[bucket].push_back(
            {static_cast<float>(r), p.z, i});
        if (prof.tracing()) {
            prof.load(regionScan, i * sizeof(pc::Point),
                      sizeof(pc::Point));
            prof.store(regionRays,
                       rayOffset(bucket, rays[bucket].size() - 1),
                       sizeof(RadialPoint));
        }
    }

    const double slope_tan =
        std::tan(config.slopeThresholdDeg * M_PI / 180.0);
    const double general_tan =
        std::tan(config.generalSlopeDeg * M_PI / 180.0);

    std::uint64_t sort_comparisons = 0;
    std::uint64_t ground_count = 0;
    std::uint64_t no_ground_count = 0;
    for (auto &ray : rays) {
        // Radial sort; a sampled quarter of the comparisons is
        // traced (spinning LiDAR emits in azimuth order, so rays
        // arrive nearly radially sorted and the compare branch is
        // fairly predictable in practice).
        std::sort(ray.begin(), ray.end(),
                  [&](const RadialPoint &a, const RadialPoint &b) {
                      const bool less = a.radius < b.radius;
                      if ((sort_comparisons & 3u) == 0)
                          prof.branch(siteSortCompare, less);
                      ++sort_comparisons;
                      return less;
                  });

        // Walk outward tracking the ground height.
        double prev_r = 0.0;
        double prev_ground_z = config.initialHeight;
        for (const RadialPoint &rp : ray) {
            if (prof.tracing()) {
                prof.load(regionRays,
                          rayOffset(static_cast<std::uint64_t>(
                                        &ray - rays.data()),
                                    static_cast<std::uint64_t>(
                                        &rp - ray.data())),
                          sizeof(RadialPoint));
                prof.hotLoads(10);
                prof.hotStores(4);
            }
            bool is_ground = false;
            if (rp.z < config.clippingHeight) {
                const double dr =
                    std::max(0.5, double(rp.radius) - prev_r);
                const double allowed = slope_tan * dr + 0.12;
                const double general_limit =
                    config.initialHeight + config.generalOffset +
                    general_tan * double(rp.radius);
                is_ground =
                    std::fabs(double(rp.z) - prev_ground_z) <=
                        allowed &&
                    double(rp.z) <= general_limit;
            }
            prof.branch(siteIsGround, is_ground);
            emit(is_ground, rp.index);
            std::uint64_t &emitted =
                is_ground ? ground_count : no_ground_count;
            ++emitted;
            if (is_ground) {
                prev_ground_z = rp.z;
                prev_r = rp.radius;
            }
            if (prof.tracing()) {
                prof.store(is_ground ? regionGround
                                     : regionNoGround,
                           (emitted - 1) * sizeof(pc::Point),
                           sizeof(pc::Point));
            }
        }
    }

    // Abstract accounting: bucketing + sort + walk.
    const std::uint64_t n = scan.size();
    uarch::OpCounts ops;
    ops.loads = 8 * n + 5 * sort_comparisons;
    ops.stores = 4 * n + 2 * sort_comparisons;
    ops.branches = 3 * n + 2 * sort_comparisons;
    ops.intAlu = 6 * n + 3 * sort_comparisons;
    ops.fpAlu = 14 * n; // atan2/hypot folded in
    ops.fpDiv = n / 4;
    prof.addOps(ops);
    prof.bulkBranches(6 * n + 2 * sort_comparisons);
}

} // namespace

GroundSplit
rayGroundFilter(const pc::PointCloud &scan,
                const RayGroundConfig &config,
                uarch::KernelProfiler prof)
{
    GroundSplit out;
    out.ground.stampNs = scan.stampNs;
    out.noGround.stampNs = scan.stampNs;
    splitRays(scan, config, prof,
              [&](bool is_ground, std::uint32_t index) {
                  (is_ground ? out.ground : out.noGround)
                      .push_back(scan[index]);
              });
    return out;
}

GroundIndices
rayGroundIndices(const pc::PointCloud &scan,
                 const RayGroundConfig &config,
                 uarch::KernelProfiler prof)
{
    AV_ASSERT(scan.size() <= GroundIndices::kMaxPoints, "a scan of ",
              scan.size(), " points overflows 16-bit indices");
    GroundIndices out;
    splitRays(scan, config, prof,
              [&](bool is_ground, std::uint32_t index) {
                  (is_ground ? out.ground : out.noGround)
                      .push_back(static_cast<std::uint16_t>(index));
              });
    return out;
}

GroundSplit
GroundIndices::gather(const pc::PointCloud &scan) const
{
    GroundSplit out;
    const auto pick = [&scan](const std::vector<std::uint16_t> &indices,
                              pc::PointCloud &cloud) {
        cloud.stampNs = scan.stampNs;
        cloud.reserve(indices.size());
        for (const std::uint16_t i : indices)
            cloud.push_back(scan[i]);
    };
    pick(ground, out.ground);
    pick(noGround, out.noGround);
    return out;
}

} // namespace av::perception
