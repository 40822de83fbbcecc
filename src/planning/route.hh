/**
 * @file
 * Global route planning — Autoware's op_global_planner (paper
 * §II-B: the global planner defines a high-level route to the
 * destination). A directed waypoint graph with A* search; the
 * stack's lane-level map annotation the paper lacked for its Nagoya
 * drive (§III-C) and therefore could not profile — we build it as
 * the actuation layer for closed-loop use.
 */

#ifndef AVSCOPE_PLANNING_ROUTE_HH
#define AVSCOPE_PLANNING_ROUTE_HH

#include <cstdint>
#include <vector>

#include "geom/vec.hh"

namespace av::plan {

/**
 * Directed waypoint graph.
 */
class RouteNetwork
{
  public:
    /** Add a waypoint; returns its id. */
    std::uint32_t addNode(const geom::Vec2 &position);

    /** Directed edge a -> b (cost = Euclidean length). */
    void addEdge(std::uint32_t a, std::uint32_t b);

    const geom::Vec2 &position(std::uint32_t id) const
    {
        return nodes_[id].position;
    }

    /** Nearest node to a world position (linear scan). */
    std::uint32_t nearestNode(const geom::Vec2 &p) const;

    /**
     * A* shortest path between nodes; empty when unreachable.
     * @return waypoint positions from @p from to @p to inclusive
     */
    std::vector<geom::Vec2> plan(std::uint32_t from,
                                 std::uint32_t to) const;

    /** Convenience: plan between arbitrary positions. */
    std::vector<geom::Vec2> plan(const geom::Vec2 &from,
                                 const geom::Vec2 &to) const;

    /**
     * Build a network from a closed loop of corner points, sampled
     * every @p spacing meters, with edges along the driving
     * direction.
     */
    static RouteNetwork fromLoop(const std::vector<geom::Vec2> &loop,
                                 double spacing);

  private:
    struct Node
    {
        geom::Vec2 position;
        std::vector<std::uint32_t> out; ///< successor node ids
    };
    std::vector<Node> nodes_;
};

/**
 * Densify a path so consecutive waypoints are at most @p spacing
 * apart (the local planner and pure pursuit want dense paths).
 */
std::vector<geom::Vec2>
densifyPath(const std::vector<geom::Vec2> &path, double spacing);

} // namespace av::plan

#endif // AVSCOPE_PLANNING_ROUTE_HH
