#include "world/sensors.hh"

#include <algorithm>
#include <cmath>

#include "util/random.hh"

namespace av::world {

namespace {

/**
 * Widening of each box's azimuth span, radians. One azimuth step is
 * 2*pi/900 ~ 7e-3 rad; the margin only has to cover rounding in the
 * span and in the slab test, which is ~1e-15 rad.
 */
constexpr double kAzimuthMargin = 1e-3;

/**
 * For every azimuth step of a scan from @p origin, the indices of the
 * boxes in @p aabbs (ascending) whose footprint the ray's planar
 * direction can reach. A box the origin stands inside, or whose
 * widened span wraps the circle, lands in every bucket.
 */
std::vector<std::vector<std::uint32_t>>
azimuthBuckets(const std::vector<geom::Aabb> &aabbs,
               const geom::Vec2 &origin, double ego_yaw,
               std::uint32_t steps)
{
    std::vector<std::vector<std::uint32_t>> buckets(steps);
    const double step = 2.0 * M_PI / steps;
    for (std::uint32_t c = 0; c < aabbs.size(); ++c) {
        const geom::Aabb &box = aabbs[c];
        const bool inside = origin.x >= box.lo.x &&
                            origin.x <= box.hi.x &&
                            origin.y >= box.lo.y && origin.y <= box.hi.y;
        std::int64_t first = 0;
        std::int64_t last = static_cast<std::int64_t>(steps);
        if (!inside) {
            // Outside a convex footprint every corner lies within
            // half a turn of corner 0, so the offsets from it bound
            // the span without wrapping.
            const geom::Vec2 corners[4] = {{box.lo.x, box.lo.y},
                                           {box.hi.x, box.lo.y},
                                           {box.hi.x, box.hi.y},
                                           {box.lo.x, box.hi.y}};
            const double base = std::atan2(corners[0].y - origin.y,
                                           corners[0].x - origin.x);
            double lo = 0.0, hi = 0.0;
            for (int i = 1; i < 4; ++i) {
                const double off = geom::normalizeAngle(
                    std::atan2(corners[i].y - origin.y,
                               corners[i].x - origin.x) -
                    base);
                lo = std::min(lo, off);
                hi = std::max(hi, off);
            }
            first = static_cast<std::int64_t>(std::ceil(
                (base + lo - ego_yaw - kAzimuthMargin) / step));
            last = static_cast<std::int64_t>(std::floor(
                (base + hi - ego_yaw + kAzimuthMargin) / step));
        }
        if (last - first + 1 >= static_cast<std::int64_t>(steps)) {
            for (auto &bucket : buckets)
                bucket.push_back(c);
            continue;
        }
        const auto n = static_cast<std::int64_t>(steps);
        for (std::int64_t k = first; k <= last; ++k)
            buckets[static_cast<std::size_t>(((k % n) + n) % n)]
                .push_back(c);
    }
    return buckets;
}

} // namespace

LidarModel::LidarModel(const LidarConfig &config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
}

pc::PointCloud
LidarModel::scan(const Scenario &scenario, sim::Tick t) const
{
    return scan(scenario, t, scenario.egoPoseAt(t));
}

pc::PointCloud
LidarModel::scan(const Scenario &scenario, sim::Tick t,
                 const geom::Pose2 &ego) const
{
    // Deterministic noise stream per scan.
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0x9e3779b97f4a7c15ull));

    const geom::Vec3 origin{ego.p.x, ego.p.y, config_.mountHeight};
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const auto &obstacles = scenario.obstacles();

    // Pre-prune geometry to the range disc.
    const double reach = config_.maxRange + 5.0;
    std::vector<const geom::OrientedBox *> candidates;
    std::vector<geom::Aabb> candidateAabbs;
    candidates.reserve(obstacles.size() + actors.size());
    for (const StaticObstacle &ob : obstacles) {
        if ((ob.box.pose.p - ego.p).norm() <
            reach + std::max(ob.box.length, ob.box.width)) {
            candidates.push_back(&ob.box);
            candidateAabbs.push_back(ob.box.aabb());
        }
    }
    for (const ActorState &actor : actors) {
        if ((actor.box.pose.p - ego.p).norm() < reach + 6.0) {
            candidates.push_back(&actor.box);
            candidateAabbs.push_back(actor.box.aabb());
        }
    }

    // A ray can only hit boxes its planar direction reaches; the
    // others would fail the slab test anyway, so skipping them leaves
    // every hit, intensity and noise draw unchanged.
    const std::vector<std::vector<std::uint32_t>> buckets =
        azimuthBuckets(candidateAabbs, ego.p, ego.yaw,
                       config_.azimuthSteps);

    pc::PointCloud cloud;
    cloud.stampNs = t;
    cloud.reserve(static_cast<std::size_t>(config_.beams) *
                  config_.azimuthSteps / 2);

    const double fov = config_.verticalFovDeg * M_PI / 180.0;
    std::vector<double> beam_cos(config_.beams);
    std::vector<double> beam_sin(config_.beams);
    for (std::uint32_t beam = 0; beam < config_.beams; ++beam) {
        const double elev =
            -fov / 2.0 +
            fov * beam / std::max<std::uint32_t>(config_.beams - 1, 1);
        beam_cos[beam] = std::cos(elev);
        beam_sin[beam] = std::sin(elev);
    }
    // Vehicle frame: Vec2::rotated(-ego.yaw), with its cos/sin hoisted.
    const double back_c = std::cos(-ego.yaw);
    const double back_s = std::sin(-ego.yaw);

    for (std::uint32_t az = 0; az < config_.azimuthSteps; ++az) {
        const double azimuth =
            2.0 * M_PI * az / config_.azimuthSteps;
        const double world_yaw = ego.yaw + azimuth;
        const double cy = std::cos(world_yaw);
        const double sy = std::sin(world_yaw);
        const std::vector<std::uint32_t> &reachable = buckets[az];
        for (std::uint32_t beam = 0; beam < config_.beams; ++beam) {
            const double ce = beam_cos[beam];
            const geom::Vec3 dir{cy * ce, sy * ce, beam_sin[beam]};

            double best_t = config_.maxRange;
            float intensity = 0.0f;
            bool hit = false;

            // Ground plane z = 0.
            if (dir.z < -1e-6) {
                const double tg = -origin.z / dir.z;
                if (tg < best_t) {
                    best_t = tg;
                    intensity = 0.25f;
                    hit = true;
                }
            }
            // Boxes.
            for (const std::uint32_t c : reachable) {
                double tb = 0.0;
                // Cheap reject on the AABB first.
                if (!geom::rayAabb(origin, dir, candidateAabbs[c],
                                   tb) ||
                    tb >= best_t)
                    continue;
                if (geom::rayOrientedBox(origin, dir, *candidates[c],
                                         tb) &&
                    tb < best_t && tb > config_.minRange) {
                    best_t = tb;
                    intensity = 0.6f;
                    hit = true;
                }
            }
            if (!hit || best_t < config_.minRange)
                continue;
            if (rng.bernoulli(config_.dropProb))
                continue;
            const double d =
                best_t + rng.gaussian(0.0, config_.rangeNoise);
            // Vehicle frame: rotate the world direction back by the
            // ego yaw; z is kept as absolute height above ground
            // (sensor sits at mountHeight), so a pure planar pose
            // maps local points to the world.
            const geom::Vec2 flat{back_c * dir.x - back_s * dir.y,
                                  back_s * dir.x + back_c * dir.y};
            cloud.push_back(pc::Point::fromVec(
                {flat.x * d, flat.y * d,
                 config_.mountHeight + dir.z * d},
                intensity, static_cast<std::uint16_t>(beam)));
        }
    }
    return cloud;
}

CameraModel::CameraModel(const CameraConfig &config) : config_(config)
{
}

CameraFrame
CameraModel::capture(const Scenario &scenario, sim::Tick t) const
{
    return capture(scenario, t, scenario.egoPoseAt(t));
}

CameraFrame
CameraModel::capture(const Scenario &scenario, sim::Tick t,
                     const geom::Pose2 &ego) const
{
    const double half_fov =
        config_.horizontalFovDeg * M_PI / 360.0;
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const auto &obstacles = scenario.obstacles();
    const geom::Vec3 cam_origin{ego.p.x, ego.p.y, 1.4};

    CameraFrame frame;
    frame.width = config_.width;
    frame.height = config_.height;

    for (const ActorState &actor : actors) {
        const geom::Vec2 rel = ego.toLocal(actor.box.pose.p);
        const double range = rel.norm();
        if (range < 2.0 || range > config_.maxRange)
            continue;
        const double bearing = std::atan2(rel.y, rel.x);
        if (std::fabs(bearing) > half_fov)
            continue;

        // Occlusion: cast the center ray against buildings and any
        // closer actor.
        const double target_h =
            (actor.box.zMax - actor.box.zMin) / 2.0;
        const geom::Vec3 target{actor.box.pose.p.x,
                                actor.box.pose.p.y, target_h};
        const geom::Vec3 dir = (target - cam_origin) / range;
        double occlusion = 0.0;
        for (const StaticObstacle &ob : obstacles) {
            double tb = 0.0;
            if (geom::rayOrientedBox(cam_origin, dir, ob.box, tb) &&
                tb < range - 1.0) {
                occlusion = 1.0;
                break;
            }
        }
        if (occlusion < 1.0) {
            for (const ActorState &other : actors) {
                if (other.id == actor.id)
                    continue;
                double tb = 0.0;
                if (geom::rayOrientedBox(cam_origin, dir, other.box,
                                         tb) &&
                    tb < range - 0.5) {
                    occlusion =
                        std::max(occlusion,
                                 0.6); // partial: offset body parts
                }
            }
        }
        if (occlusion >= 1.0)
            continue;

        VisibleObject vo;
        vo.truthId = actor.id;
        vo.cls = actor.cls;
        vo.range = range;
        vo.bearing = bearing;
        vo.imageHeightPx =
            config_.focalPx * (actor.box.zMax - actor.box.zMin) /
            range;
        vo.worldPos = actor.box.pose.p;
        vo.worldVelocity = actor.velocity;
        vo.occlusion = occlusion;
        frame.truth.push_back(vo);
    }
    return frame;
}

GnssFix
GnssModel::fix(const Scenario &scenario, sim::Tick t) const
{
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0x2545f4914f6cdd1dull));
    const geom::Pose2 ego = scenario.egoPoseAt(t);
    GnssFix out;
    out.position = {ego.p.x + rng.gaussian(0.0, sigma_),
                    ego.p.y + rng.gaussian(0.0, sigma_), 0.0};
    out.horizontalErr = sigma_;
    return out;
}

ImuSample
ImuModel::sample(const Scenario &scenario, sim::Tick t) const
{
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0xd6e8feb86659fd93ull));
    // Finite-difference the ground-truth heading for yaw rate.
    const sim::Tick dt = 10 * sim::oneMs;
    const geom::Pose2 a = scenario.egoPoseAt(t);
    const geom::Pose2 b = scenario.egoPoseAt(t + dt);
    ImuSample s;
    s.yawRate = geom::normalizeAngle(b.yaw - a.yaw) /
                    sim::ticksToSeconds(dt) +
                rng.gaussian(0.0, 0.01);
    s.accelX = rng.gaussian(0.0, 0.05);
    s.speed = scenario.egoSpeedAt(t) + rng.gaussian(0.0, 0.05);
    return s;
}

} // namespace av::world
