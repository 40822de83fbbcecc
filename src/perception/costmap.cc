#include "perception/costmap.hh"

#include <algorithm>
#include <cmath>

namespace av::perception {

namespace {

/** Logical probe region (block 56-63, see profiler.hh). */
constexpr uarch::KernelProfiler::Region regionGrid = 56;

Costmap
emptyGrid(const geom::Pose2 &ego, const CostmapConfig &config,
          uarch::KernelProfiler &prof)
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
    // Grid clear: a vectorized memset with non-temporal stores —
    // it moves DRAM traffic but does not pollute (or miss in) the
    // cache, so it is accounted as SIMD work only.
    uarch::OpCounts ops;
    ops.simd = map.cost.size() / 8;
    ops.intAlu = map.cost.size() / 16;
    prof.addOps(ops);
    return map;
}

/**
 * Paint a filled disc of @p radius meters at world position.
 *
 * The cells painted, the @p painted count and the probe stream are
 * those of testing every cell of the (2r+1)^2 box around the center
 * cell against dx^2 + dy^2 <= r^2, row by row: every 8th painted
 * cell is probed, in that order. The host loop is free: each row's
 * inside cells form one contiguous span (the rounded predicate is
 * monotone in |dx|), so the span's ends come from sqrt(r^2 - dy^2),
 * corrected by a cell against the exact predicate, and the probes are
 * emitted at their painted positions arithmetically.
 */
void
paintDisc(Costmap &map, const geom::Vec2 &world, double radius,
          float value, uarch::KernelProfiler &prof,
          std::uint64_t &painted)
{
    const double gx = (world.x - map.origin.x) / map.resolution;
    const double gy = (world.y - map.origin.y) / map.resolution;
    const int r_cells = std::max(
        1, static_cast<int>(radius / map.resolution));
    const int cx = static_cast<int>(gx);
    const int cy = static_cast<int>(gy);
    const double r2 = double(r_cells) * r_cells;
    // The box, clipped to the grid.
    const int x_min = std::max(cx - r_cells, 0);
    const int x_max =
        std::min(cx + r_cells, static_cast<int>(map.cellsX) - 1);
    const int y_min = std::max(cy - r_cells, 0);
    const int y_max =
        std::min(cy + r_cells, static_cast<int>(map.cellsY) - 1);
    if (x_min > x_max)
        return;
    const bool tracing = prof.tracing();
    std::uint64_t probes = 0;

    for (int y = y_min; y <= y_max; ++y) {
        const double dy = y - gy;
        const double dy2 = dy * dy;
        if (dy2 > r2)
            continue;
        const auto inside = [&](int x) {
            const double dx = x - gx;
            return dx * dx + dy2 <= r2;
        };
        // Rounded ends, clamped to the box (so truncation floors):
        // lo = floor(gx - half) is never right of the first inside
        // cell, and hi = floor(gx + half) can miss the last one by a
        // cell either way. Settle both against the predicate.
        const double half = std::sqrt(r2 - dy2);
        int lo = static_cast<int>(
            std::clamp(gx - half, double(x_min), double(x_max)));
        int hi = static_cast<int>(
            std::clamp(gx + half, double(x_min), double(x_max)));
        while (lo <= hi && !inside(lo))
            ++lo;
        while (hi >= lo && !inside(hi))
            --hi;
        while (hi < x_max && inside(hi + 1))
            ++hi;
        if (lo > hi)
            continue;

        const std::size_t row =
            static_cast<std::size_t>(y) * map.cellsX;
        float *cells = map.cost.data() + row;
        for (int x = lo; x <= hi; ++x)
            cells[x] = std::max(cells[x], value);
        const auto span = static_cast<std::uint64_t>(hi - lo + 1);
        if (tracing) {
            // Span cell k is painted cell number painted + k + 1.
            for (std::uint64_t k = 7 - painted % 8; k < span; k += 8) {
                const std::size_t cell_idx =
                    row + static_cast<std::size_t>(lo) + k;
                prof.store(regionGrid, cell_idx * sizeof(float),
                           sizeof(float));
                prof.load(regionGrid, cell_idx * sizeof(float),
                          sizeof(float));
                ++probes;
            }
        }
        painted += span;
    }
    if (probes > 0) {
        prof.hotLoads(24 * probes); // row-local raster arithmetic
        prof.hotStores(7 * probes);
    }
}

} // namespace

Costmap
generateObjectCostmap(const ObjectList &objects,
                      const geom::Pose2 &ego,
                      const CostmapConfig &config,
                      uarch::KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;

    for (const DetectedObject &obj : objects.objects) {
        // Footprint: paint the oriented rectangle by sampling its
        // area at cell resolution.
        const double half_l = std::max(obj.length, 0.5) / 2.0;
        const double half_w = std::max(obj.width, 0.5) / 2.0;
        const double step = config.resolution;
        const double c = std::cos(obj.yaw);
        const double s = std::sin(obj.yaw);
        for (double u = -half_l; u <= half_l; u += step) {
            for (double v = -half_w; v <= half_w; v += step) {
                const geom::Vec2 w{
                    obj.position.x + c * u - s * v,
                    obj.position.y + s * u + c * v};
                paintDisc(map, w, config.inflation,
                          static_cast<float>(config.objectCost),
                          prof, painted);
            }
        }
        // Predicted path: inflated waypoints at lower cost.
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
generatePointsCostmap(const pc::PointCloud &no_ground,
                      const geom::Pose2 &ego,
                      const CostmapConfig &config,
                      uarch::KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;

    for (const pc::Point &p : no_ground.points) {
        if (p.z > 2.5)
            continue; // overhanging structures don't block
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

} // namespace av::perception
