#include "geom/pose.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace av::geom {

double
normalizeAngle(double a)
{
    while (a > M_PI)
        a -= 2.0 * M_PI;
    while (a <= -M_PI)
        a += 2.0 * M_PI;
    return a;
}

Quat
Quat::fromRpy(double roll, double pitch, double yaw)
{
    const double cr = std::cos(roll * 0.5), sr = std::sin(roll * 0.5);
    const double cp = std::cos(pitch * 0.5), sp = std::sin(pitch * 0.5);
    const double cy = std::cos(yaw * 0.5), sy = std::sin(yaw * 0.5);
    Quat q;
    q.w = cr * cp * cy + sr * sp * sy;
    q.x = sr * cp * cy - cr * sp * sy;
    q.y = cr * sp * cy + sr * cp * sy;
    q.z = cr * cp * sy - sr * sp * cy;
    return q;
}

Quat
Quat::operator*(const Quat &o) const
{
    return {w * o.w - x * o.x - y * o.y - z * o.z,
            w * o.x + x * o.w + y * o.z - z * o.y,
            w * o.y - x * o.z + y * o.w + z * o.x,
            w * o.z + x * o.y - y * o.x + z * o.w};
}

Vec3
Quat::rotate(const Vec3 &v) const
{
    // v' = v + 2 q_vec x (q_vec x v + w v)
    const Vec3 qv{x, y, z};
    const Vec3 t = qv.cross(v) * 2.0;
    return v + t * w + qv.cross(t);
}

double
Quat::yaw() const
{
    const double siny = 2.0 * (w * z + x * y);
    const double cosy = 1.0 - 2.0 * (y * y + z * z);
    return std::atan2(siny, cosy);
}

Quat
Quat::normalized() const
{
    const double n = std::sqrt(w * w + x * x + y * y + z * z);
    if (n <= 0.0)
        return {};
    return {w / n, x / n, y / n, z / n};
}

Pose
Pose::compose(const Pose &other) const
{
    return {apply(other.t), (r * other.r).normalized()};
}

Pose
Pose::inverse() const
{
    const Quat ri = r.conjugate();
    return {ri.rotate(-t), ri};
}

void
Aabb::expand(const Vec3 &p)
{
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
}

bool
rayAabb(const Vec3 &origin, const Vec3 &dir, const Aabb &box,
        double &t_hit)
{
    double tmin = 0.0;
    double tmax = std::numeric_limits<double>::infinity();
    for (int axis = 0; axis < 3; ++axis) {
        const double o = origin[axis];
        const double d = dir[axis];
        const double lo = box.lo[axis];
        const double hi = box.hi[axis];
        if (std::fabs(d) < 1e-12) {
            if (o < lo || o > hi)
                return false;
            continue;
        }
        double t0 = (lo - o) / d;
        double t1 = (hi - o) / d;
        if (t0 > t1)
            std::swap(t0, t1);
        tmin = std::max(tmin, t0);
        tmax = std::min(tmax, t1);
        if (tmin > tmax)
            return false;
    }
    t_hit = tmin;
    return true;
}

void
OrientedBox::corners(Vec2 out[4]) const
{
    const double hl = length * 0.5;
    const double hw = width * 0.5;
    out[0] = pose.apply({+hl, +hw});
    out[1] = pose.apply({-hl, +hw});
    out[2] = pose.apply({-hl, -hw});
    out[3] = pose.apply({+hl, -hw});
}

Aabb
OrientedBox::aabb() const
{
    Vec2 c[4];
    corners(c);
    Aabb box{{c[0].x, c[0].y, zMin}, {c[0].x, c[0].y, zMax}};
    for (int i = 1; i < 4; ++i) {
        box.expand({c[i].x, c[i].y, zMin});
        box.expand({c[i].x, c[i].y, zMax});
    }
    return box;
}

bool
rayOrientedBox(const Vec3 &origin, const Vec3 &dir,
               const OrientedBox &box, double &t_hit)
{
    // Rotate the ray into the box frame, then slab-test an AABB
    // centered at the origin.
    const Vec2 o2 = box.pose.toLocal(origin.xy());
    const Vec2 d2 = Vec2{dir.x, dir.y}.rotated(-box.pose.yaw);
    const Vec3 o{o2.x, o2.y, origin.z};
    const Vec3 d{d2.x, d2.y, dir.z};
    const Aabb local{{-box.length * 0.5, -box.width * 0.5, box.zMin},
                     {+box.length * 0.5, +box.width * 0.5, box.zMax}};
    return rayAabb(o, d, local, t_hit);
}

} // namespace av::geom
