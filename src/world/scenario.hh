/**
 * @file
 * The synthetic urban drive that replaces the paper's 8-minute
 * Nagoya recording (§III-A).
 *
 * An ego vehicle loops a city block lined with buildings while NPC
 * vehicles and pedestrians move around it. Everything is a
 * deterministic function of (config, seed, time), so recording the
 * same drive twice yields identical sensor streams — the property
 * the paper gets from ROSBAG replay. Scene density varies along the
 * loop (parked cars, a busy crossing, an empty stretch) because the
 * paper attributes node latency variation to the number of traffic
 * participants (§IV-A).
 */

#ifndef AVSCOPE_WORLD_SCENARIO_HH
#define AVSCOPE_WORLD_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "geom/pose.hh"
#include "geom/vec.hh"
#include "sim/ticks.hh"
#include "util/hash.hh"

namespace av::world {

/** Classes of traffic participants (COCO-compatible subset). */
enum class ActorClass : std::uint8_t {
    Car,
    Truck,
    Pedestrian,
    Cyclist,
};

/** A moving (or parked) traffic participant. */
struct Actor
{
    std::uint32_t id = 0;
    ActorClass cls = ActorClass::Car;
    double length = 4.4, width = 1.8, height = 1.5;
    /** Loop offset (m along the route) and speed (m/s); speed 0 =
     *  parked at the offset. Pedestrians use their own paths. */
    double routeOffset = 0.0;
    double speed = 0.0;
    bool onRoute = true;        ///< false: oscillates near basePos
    geom::Vec2 basePos;          ///< anchor for off-route actors
    double oscillateHeading = 0.0;
    double oscillateSpan = 0.0;  ///< walk amplitude (m)
};

/** Actor state at a given time. */
struct ActorState
{
    std::uint32_t id = 0;
    ActorClass cls = ActorClass::Car;
    geom::OrientedBox box;
    geom::Vec2 velocity;
};

/** Static world geometry (buildings, walls, street furniture). */
struct StaticObstacle
{
    geom::OrientedBox box;
};

/** Scenario generation knobs. */
struct ScenarioConfig
{
    std::uint64_t seed = 2020;
    double blockLength = 220.0; ///< rectangle loop, long side (m)
    double blockWidth = 140.0;  ///< short side (m)
    double egoSpeed = 8.0;      ///< m/s cruise
    std::uint32_t nVehicles = 20;   ///< moving NPC vehicles
    /** Lateral shift of moving NPC vehicles off the route line
     *  (meters, left-positive). 0 keeps them on the ego's line —
     *  fine for open-loop replay; closed-loop driving wants a real
     *  lane separation. */
    double vehicleLaneOffset = 0.0;
    std::uint32_t nParked = 14;     ///< parked cars along the kerb
    std::uint32_t nPedestrians = 20;
    std::uint32_t nBuildings = 36;
};

void
fields(auto &&ar, util::MaybeConst<ScenarioConfig> auto &c)
{
    auto &[seed, blockLength, blockWidth, egoSpeed, nVehicles,
           vehicleLaneOffset, nParked, nPedestrians, nBuildings] = c;
    ar(seed, blockLength, blockWidth, egoSpeed, nVehicles,
       vehicleLaneOffset, nParked, nPedestrians, nBuildings);
}

/**
 * The world. Pure queries: state at time t.
 */
class Scenario
{
  public:
    explicit Scenario(const ScenarioConfig &config = ScenarioConfig());

    /** Ground-truth ego pose at virtual time @p t. */
    geom::Pose2 egoPoseAt(sim::Tick t) const;

    /** Ego speed (m/s) at @p t (constant in this scenario). */
    double egoSpeedAt(sim::Tick t) const;

    /** Every actor's state at @p t (excluding the ego). */
    std::vector<ActorState> actorsAt(sim::Tick t) const;

    /** Static geometry. */
    const std::vector<StaticObstacle> &obstacles() const
    {
        return obstacles_;
    }

    /** The rectangular route as a closed polyline (corner points). */
    const std::vector<geom::Vec2> &route() const { return route_; }

    /** Total route length (m). */
    double routeLength() const { return routeLength_; }

    /** Position + heading at arclength @p s (wraps around). */
    geom::Pose2 poseOnRoute(double s) const;

    const ScenarioConfig &config() const { return config_; }

  private:
    ScenarioConfig config_;
    std::vector<geom::Vec2> route_;
    std::vector<double> cumulative_; ///< arclength at each vertex
    double routeLength_ = 0.0;
    std::vector<Actor> actors_;
    std::vector<StaticObstacle> obstacles_;

    void buildRoute();
    void buildObstacles();
    void buildActors();
};

} // namespace av::world

#endif // AVSCOPE_WORLD_SCENARIO_HH
