/**
 * @file
 * Rigid-body transforms: quaternions, SE(3) poses, and the planar
 * Pose2 the driving logic uses.
 */

#ifndef AVSCOPE_GEOM_POSE_HH
#define AVSCOPE_GEOM_POSE_HH

#include "geom/vec.hh"

namespace av::geom {

/** Wrap an angle into (-pi, pi]. */
double normalizeAngle(double a);

/** Unit quaternion (w, x, y, z). */
struct Quat
{
    double w = 1.0;
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    /** From roll/pitch/yaw (x-y-z intrinsic, Autoware convention). */
    static Quat fromRpy(double roll, double pitch, double yaw);

    /** Hamilton product. */
    Quat operator*(const Quat &o) const;

    /** Conjugate (inverse for unit quaternions). */
    Quat conjugate() const { return {w, -x, -y, -z}; }

    /** Rotate a vector. */
    Vec3 rotate(const Vec3 &v) const;

    /** Yaw only (cheap; the planar stack mostly needs this). */
    double yaw() const;

    /** Renormalize to unit length. */
    Quat normalized() const;
};

/** A full 6-DoF pose: rotation then translation. */
struct Pose
{
    Vec3 t;
    Quat r;

    /** Apply to a point: r * p + t. */
    Vec3 apply(const Vec3 &p) const { return r.rotate(p) + t; }

    /** Compose: this * other (other applied first). */
    Pose compose(const Pose &other) const;

    /** Inverse transform. */
    Pose inverse() const;
};

/** Planar pose for driving logic: position + heading. */
struct Pose2
{
    Vec2 p;
    double yaw = 0.0;

    /** Transform a local-frame point into the world frame. */
    Vec2
    apply(const Vec2 &local) const
    {
        return p + local.rotated(yaw);
    }

    /** Transform a world-frame point into this pose's local frame. */
    Vec2
    toLocal(const Vec2 &world) const
    {
        return (world - p).rotated(-yaw);
    }

    /** Lift to a full 3-D pose at height @p z. */
    Pose
    lift(double z = 0.0) const
    {
        return {{p.x, p.y, z}, Quat::fromRpy(0.0, 0.0, yaw)};
    }
};

/** Axis-aligned box. */
struct Aabb
{
    Vec3 lo;
    Vec3 hi;

    Vec3 center() const { return (lo + hi) * 0.5; }

    /** Grow to include @p p. */
    void expand(const Vec3 &p);
};

/**
 * Slab-method ray/AABB intersection.
 *
 * @param origin ray origin
 * @param dir    ray direction (need not be unit length)
 * @param box    target box
 * @param t_hit  out: smallest t >= 0 with origin + t*dir inside box
 * @return true when the ray hits the box at t >= 0
 */
bool rayAabb(const Vec3 &origin, const Vec3 &dir, const Aabb &box,
             double &t_hit);

/**
 * An oriented (yaw-only) box footprint in the plane with a height
 * range — the shape every traffic participant occupies.
 */
struct OrientedBox
{
    Pose2 pose;      ///< center position + heading
    double length = 0.0; ///< along heading
    double width = 0.0;  ///< across heading
    double zMin = 0.0;
    double zMax = 0.0;

    /** Footprint corners in world frame (counterclockwise). */
    void corners(Vec2 out[4]) const;

    /** Conservative world-frame AABB. */
    Aabb aabb() const;
};

/**
 * Ray intersection with an oriented box (treated as an extruded
 * rectangle between zMin and zMax).
 */
bool rayOrientedBox(const Vec3 &origin, const Vec3 &dir,
                    const OrientedBox &box, double &t_hit);

} // namespace av::geom

#endif // AVSCOPE_GEOM_POSE_HH
