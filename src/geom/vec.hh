/**
 * @file
 * 2-D and 3-D vector types.
 *
 * avscope re-implements the point-cloud and estimation math that
 * Autoware gets from Eigen/PCL; these small value types are the
 * foundation.
 */

#ifndef AVSCOPE_GEOM_VEC_HH
#define AVSCOPE_GEOM_VEC_HH

#include <cmath>

namespace av::geom {

/** A 2-D vector / point. */
struct Vec2
{
    double x = 0.0;
    double y = 0.0;

    constexpr Vec2() = default;
    constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

    constexpr Vec2 operator+(const Vec2 &o) const
    { return {x + o.x, y + o.y}; }
    constexpr Vec2 operator-(const Vec2 &o) const
    { return {x - o.x, y - o.y}; }
    constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
    constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
    constexpr Vec2 operator-() const { return {-x, -y}; }

    Vec2 &operator+=(const Vec2 &o) { x += o.x; y += o.y; return *this; }
    Vec2 &operator-=(const Vec2 &o) { x -= o.x; y -= o.y; return *this; }
    Vec2 &operator*=(double s) { x *= s; y *= s; return *this; }

    constexpr double dot(const Vec2 &o) const { return x * o.x + y * o.y; }
    /** Z-component of the 3-D cross product. */
    constexpr double cross(const Vec2 &o) const { return x * o.y - y * o.x; }
    double norm() const { return std::sqrt(x * x + y * y); }
    constexpr double squaredNorm() const { return x * x + y * y; }
    /** Unit vector; zero vector stays zero. */
    Vec2 normalized() const
    {
        const double n = norm();
        return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
    }
    /** Angle from +x axis, in (-pi, pi]. */
    double heading() const { return std::atan2(y, x); }
    /** Rotate counterclockwise by @p angle radians. */
    Vec2 rotated(double angle) const
    {
        const double c = std::cos(angle), s = std::sin(angle);
        return {c * x - s * y, s * x + c * y};
    }
};

constexpr Vec2 operator*(double s, const Vec2 &v) { return v * s; }

/** A 3-D vector / point. */
struct Vec3
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    constexpr Vec3() = default;
    constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

    constexpr Vec3 operator+(const Vec3 &o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3 &o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(double s) const
    { return {x * s, y * s, z * s}; }
    constexpr Vec3 operator/(double s) const
    { return {x / s, y / s, z / s}; }
    constexpr Vec3 operator-() const { return {-x, -y, -z}; }

    Vec3 &operator+=(const Vec3 &o)
    { x += o.x; y += o.y; z += o.z; return *this; }
    Vec3 &operator-=(const Vec3 &o)
    { x -= o.x; y -= o.y; z -= o.z; return *this; }
    Vec3 &operator*=(double s) { x *= s; y *= s; z *= s; return *this; }

    constexpr double dot(const Vec3 &o) const
    { return x * o.x + y * o.y + z * o.z; }
    constexpr Vec3 cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }
    double norm() const { return std::sqrt(squaredNorm()); }
    constexpr double squaredNorm() const { return x * x + y * y + z * z; }
    Vec3 normalized() const
    {
        const double n = norm();
        return n > 0.0 ? Vec3{x / n, y / n, z / n} : Vec3{};
    }
    constexpr Vec2 xy() const { return {x, y}; }

    double operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
    double &operator[](int i)
    { return i == 0 ? x : (i == 1 ? y : z); }
};

constexpr Vec3 operator*(double s, const Vec3 &v) { return v * s; }

/** Squared Euclidean distance between two 3-D points. */
constexpr double
squaredDistance(const Vec3 &a, const Vec3 &b)
{
    return (a - b).squaredNorm();
}

} // namespace av::geom

#endif // AVSCOPE_GEOM_VEC_HH
