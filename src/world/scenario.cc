#include "world/scenario.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"

namespace av::world {

Scenario::Scenario(const ScenarioConfig &config) : config_(config)
{
    AV_ASSERT(config_.blockLength > 40.0 && config_.blockWidth > 40.0,
              "scenario block too small");
    buildRoute();
    buildObstacles();
    buildActors();
}

void
Scenario::buildRoute()
{
    const double hl = config_.blockLength / 2.0;
    const double hw = config_.blockWidth / 2.0;
    const std::vector<geom::Vec2> corners = {
        {-hl, -hw}, {hl, -hw}, {hl, hw}, {-hl, hw}};

    // Round each corner with an arc so the ego heading is
    // continuous (real vehicles cannot turn in place; an instant
    // 90-degree yaw step between sensor frames would also defeat
    // any scan matcher).
    const double radius = 9.0;
    const int arc_steps = 10;
    route_.clear();
    for (std::size_t i = 0; i < corners.size(); ++i) {
        const geom::Vec2 prev =
            corners[(i + corners.size() - 1) % corners.size()];
        const geom::Vec2 cur = corners[i];
        const geom::Vec2 next = corners[(i + 1) % corners.size()];
        const geom::Vec2 in_dir = (cur - prev).normalized();
        const geom::Vec2 out_dir = (next - cur).normalized();
        const geom::Vec2 entry = cur - in_dir * radius;
        const geom::Vec2 exit = cur + out_dir * radius;
        route_.push_back(entry);
        // Quadratic Bezier through the corner.
        for (int k = 1; k < arc_steps; ++k) {
            const double u =
                static_cast<double>(k) / arc_steps;
            const geom::Vec2 a = entry + (cur - entry) * u;
            const geom::Vec2 b = cur + (exit - cur) * u;
            route_.push_back(a + (b - a) * u);
        }
        route_.push_back(exit);
    }

    cumulative_.assign(route_.size() + 1, 0.0);
    for (std::size_t i = 0; i < route_.size(); ++i) {
        const geom::Vec2 a = route_[i];
        const geom::Vec2 b = route_[(i + 1) % route_.size()];
        cumulative_[i + 1] = cumulative_[i] + (b - a).norm();
    }
    routeLength_ = cumulative_.back();
}

namespace {

/** Position on a closed polyline at arclength s (no heading). */
geom::Vec2
polylineAt(const std::vector<geom::Vec2> &pts,
           const std::vector<double> &cumulative, double total,
           double s)
{
    s = std::fmod(s, total);
    if (s < 0.0)
        s += total;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (s <= cumulative[i + 1] || i + 1 == pts.size()) {
            const geom::Vec2 a = pts[i];
            const geom::Vec2 b = pts[(i + 1) % pts.size()];
            const double seg = cumulative[i + 1] - cumulative[i];
            const double frac =
                seg > 0.0 ? (s - cumulative[i]) / seg : 0.0;
            return a + (b - a) * frac;
        }
    }
    return pts[0];
}

} // namespace

geom::Pose2
Scenario::poseOnRoute(double s) const
{
    const geom::Vec2 here =
        polylineAt(route_, cumulative_, routeLength_, s);
    // Continuous heading via central difference so the ego yaw (and
    // therefore the IMU yaw rate) never steps between polyline
    // segments.
    const double h = 0.75;
    const geom::Vec2 ahead =
        polylineAt(route_, cumulative_, routeLength_, s + h);
    const geom::Vec2 behind =
        polylineAt(route_, cumulative_, routeLength_, s - h);
    return {here, (ahead - behind).heading()};
}

geom::Pose2
Scenario::egoPoseAt(sim::Tick t) const
{
    const double s = config_.egoSpeed * sim::ticksToSeconds(t);
    return poseOnRoute(s);
}

double
Scenario::egoSpeedAt(sim::Tick) const
{
    return config_.egoSpeed;
}

void
Scenario::buildObstacles()
{
    util::Rng rng(config_.seed ^ 0xb11d1125ull);
    const double hl = config_.blockLength / 2.0;
    const double hw = config_.blockWidth / 2.0;
    obstacles_.clear();

    // Buildings inside and outside the loop, set back ~10 m from the
    // roadway, with randomized footprints and heights.
    for (std::uint32_t i = 0; i < config_.nBuildings; ++i) {
        StaticObstacle ob;
        const int side = static_cast<int>(i % 4);
        const double along = rng.uniform(-0.85, 0.85);
        const double setback = rng.uniform(12.0, 26.0);
        const bool inside = rng.bernoulli(0.45);
        const double offset = inside ? -setback : setback;
        geom::Vec2 center;
        double heading = 0.0;
        switch (side) {
          case 0: // south edge (y = -hw)
            center = {along * hl, -hw + offset};
            heading = 0.0;
            break;
          case 1: // east edge
            center = {hl - offset, along * hw};
            heading = M_PI / 2;
            break;
          case 2: // north edge
            center = {along * hl, hw - offset};
            heading = 0.0;
            break;
          default: // west edge
            center = {-hl + offset, along * hw};
            heading = M_PI / 2;
            break;
        }
        ob.box.pose = {center, heading};
        ob.box.length = rng.uniform(10.0, 30.0);
        ob.box.width = rng.uniform(8.0, 20.0);
        ob.box.zMin = 0.0;
        ob.box.zMax = rng.uniform(6.0, 25.0);
        obstacles_.push_back(ob);
    }
}

void
Scenario::buildActors()
{
    // Independent streams per category so that e.g. a mapping pass
    // with nVehicles = 0 keeps byte-identical parked cars and
    // pedestrians.
    util::Rng veh_rng(config_.seed ^ 0xac708555ull);
    util::Rng park_rng(config_.seed ^ 0x9a47c3d1ull);
    util::Rng ped_rng(config_.seed ^ 0x51c0ffeeull);
    actors_.clear();

    // Moving NPC vehicles spread along the loop. Id ranges are
    // category-based so ids are stable across category counts.
    for (std::uint32_t i = 0; i < config_.nVehicles; ++i) {
        util::Rng &rng = veh_rng;
        Actor a;
        a.id = 1 + i;
        a.cls = rng.bernoulli(0.15) ? ActorClass::Truck
                                    : ActorClass::Car;
        if (a.cls == ActorClass::Truck) {
            a.length = 8.5;
            a.width = 2.5;
            a.height = 3.2;
        }
        a.routeOffset = rng.uniform(0.0, routeLength_);
        a.speed = rng.uniform(5.0, 11.0);
        actors_.push_back(a);
    }

    // Parked cars at the kerb (routeOffset fixed, speed 0, shifted
    // laterally off the driving line via basePos trick below).
    for (std::uint32_t i = 0; i < config_.nParked; ++i) {
        util::Rng &rng = park_rng;
        Actor a;
        a.id = 1000 + i;
        a.cls = ActorClass::Car;
        a.routeOffset = rng.uniform(0.0, routeLength_);
        a.speed = 0.0;
        actors_.push_back(a);
    }

    // Pedestrians oscillating near the kerb.
    for (std::uint32_t i = 0; i < config_.nPedestrians; ++i) {
        util::Rng &rng = ped_rng;
        Actor a;
        a.id = 2000 + i;
        a.cls = rng.bernoulli(0.2) ? ActorClass::Cyclist
                                   : ActorClass::Pedestrian;
        if (a.cls == ActorClass::Pedestrian) {
            a.length = 0.5;
            a.width = 0.5;
            a.height = 1.75;
        } else {
            a.length = 1.8;
            a.width = 0.6;
            a.height = 1.7;
        }
        a.onRoute = false;
        const geom::Pose2 anchor =
            poseOnRoute(rng.uniform(0.0, routeLength_));
        // 4-7 m to the side of the road.
        const geom::Vec2 lateral =
            geom::Vec2{0, 1}.rotated(anchor.yaw) *
            rng.uniform(4.0, 7.0) *
            (rng.bernoulli(0.5) ? 1.0 : -1.0);
        a.basePos = anchor.p + lateral;
        a.oscillateHeading = anchor.yaw;
        a.oscillateSpan = rng.uniform(5.0, 25.0);
        a.speed = a.cls == ActorClass::Pedestrian
                      ? rng.uniform(0.8, 1.8)
                      : rng.uniform(3.0, 6.0);
        actors_.push_back(a);
    }
}

std::vector<ActorState>
Scenario::actorsAt(sim::Tick t) const
{
    const double time = sim::ticksToSeconds(t);
    std::vector<ActorState> out;
    out.reserve(actors_.size());
    for (const Actor &a : actors_) {
        ActorState st;
        st.id = a.id;
        st.cls = a.cls;
        st.box.length = a.length;
        st.box.width = a.width;
        st.box.zMin = 0.0;
        st.box.zMax = a.height;
        if (a.onRoute) {
            if (a.speed > 0.0) {
                const double s = a.routeOffset + a.speed * time;
                geom::Pose2 pose = poseOnRoute(s);
                if (config_.vehicleLaneOffset != 0.0) {
                    pose.p += geom::Vec2{0, 1}.rotated(pose.yaw) *
                              config_.vehicleLaneOffset;
                }
                st.box.pose = pose;
                st.velocity = geom::Vec2{1, 0}.rotated(
                                  st.box.pose.yaw) *
                              a.speed;
            } else {
                // Parked: fixed pose, shifted 3 m to the kerb side.
                geom::Pose2 pose = poseOnRoute(a.routeOffset);
                const geom::Vec2 lateral =
                    geom::Vec2{0, 1}.rotated(pose.yaw) * 3.0;
                pose.p += lateral;
                st.box.pose = pose;
                st.velocity = {};
            }
        } else {
            // Sinusoidal walk around the anchor.
            const double omega =
                2.0 * M_PI * a.speed / (2.0 * a.oscillateSpan);
            const double disp =
                a.oscillateSpan * std::sin(omega * time);
            const geom::Vec2 dir =
                geom::Vec2{1, 0}.rotated(a.oscillateHeading);
            st.box.pose = {a.basePos + dir * disp,
                           a.oscillateHeading +
                               (std::cos(omega * time) >= 0.0
                                    ? 0.0
                                    : M_PI)};
            st.velocity =
                dir * (a.oscillateSpan * omega *
                       std::cos(omega * time));
        }
        out.push_back(st);
    }
    return out;
}

} // namespace av::world
