/**
 * @file
 * Unit tests for geom: vectors, matrices/solvers, quaternions,
 * poses, boxes, ray casts.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "geom/mat.hh"
#include "geom/pose.hh"
#include "geom/vec.hh"
#include "util/random.hh"

namespace {

using namespace av::geom;

TEST(Vec3, BasicAlgebra)
{
    const Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_DOUBLE_EQ((a + b).x, 5.0);
    EXPECT_DOUBLE_EQ((b - a).z, 3.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
    const Vec3 c = a.cross(b);
    EXPECT_DOUBLE_EQ(c.x, -3.0);
    EXPECT_DOUBLE_EQ(c.y, 6.0);
    EXPECT_DOUBLE_EQ(c.z, -3.0);
    EXPECT_DOUBLE_EQ(a.dot(c), 0.0);
    EXPECT_DOUBLE_EQ(b.dot(c), 0.0);
}

TEST(Vec3, NormAndNormalize)
{
    const Vec3 v{3, 4, 0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

TEST(Vec2, RotationQuadrants)
{
    const Vec2 x{1, 0};
    const Vec2 r = x.rotated(M_PI / 2);
    EXPECT_NEAR(r.x, 0.0, 1e-12);
    EXPECT_NEAR(r.y, 1.0, 1e-12);
    EXPECT_NEAR(x.rotated(M_PI).x, -1.0, 1e-12);
    EXPECT_NEAR(x.rotated(2 * M_PI).x, 1.0, 1e-12);
}

TEST(Vec2, HeadingAndCross)
{
    EXPECT_NEAR(Vec2(0, 1).heading(), M_PI / 2, 1e-12);
    EXPECT_DOUBLE_EQ(Vec2(1, 0).cross({0, 1}), 1.0);
}

TEST(Mat3, InverseRoundTrip)
{
    av::util::Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        Mat3 m;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                m(i, j) = rng.uniform(-2.0, 2.0);
        m(0, 0) += 3.0; // keep it well conditioned
        m(1, 1) += 3.0;
        m(2, 2) += 3.0;
        bool ok = false;
        const Mat3 inv = inverse3(m, &ok);
        ASSERT_TRUE(ok);
        const Mat3 prod = m * inv;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
}

TEST(Mat3, SingularDetected)
{
    Mat3 m; // all zeros
    bool ok = true;
    inverse3(m, &ok);
    EXPECT_FALSE(ok);
    EXPECT_NEAR(det3(m), 0.0, 1e-12);
}

TEST(Mat3, RegularizeCovarianceFloorsEigenvalues)
{
    // Rank-1 covariance (all points on a line).
    const Vec3 dir = Vec3{1, 2, 0.5}.normalized();
    Mat3 cov = outer(dir, dir) * 4.0;
    const Mat3 reg = regularizeCovariance(cov, 0.01);
    bool ok = false;
    inverse3(reg, &ok);
    EXPECT_TRUE(ok); // invertible after regularization
    // Still close to the original on the dominant direction.
    const Vec3 rd = mul(reg, dir);
    EXPECT_NEAR(rd.dot(dir), 4.0, 0.2);
}

TEST(MatN, CholeskySolveSpd)
{
    // A = L L^T with known solution.
    Mat<3, 3> a;
    a(0, 0) = 4;  a(0, 1) = 2;  a(0, 2) = 0.6;
    a(1, 0) = 2;  a(1, 1) = 5;  a(1, 2) = 1;
    a(2, 0) = 0.6; a(2, 1) = 1; a(2, 2) = 3;
    const std::array<double, 3> x_true{1.0, -2.0, 0.5};
    const std::array<double, 3> b = a.apply(x_true);
    std::array<double, 3> x{};
    ASSERT_TRUE(solveCholesky(a, b, x));
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(MatN, CholeskySolveDampsIndefinite)
{
    // Indefinite matrix: solver must fall back to damping, not crash.
    Mat<2, 2> a;
    a(0, 0) = 1;  a(0, 1) = 0;
    a(1, 0) = 0;  a(1, 1) = -1;
    std::array<double, 2> x{};
    EXPECT_TRUE(solveCholesky(a, {1.0, 1.0}, x));
    EXPECT_TRUE(std::isfinite(x[0]));
    EXPECT_TRUE(std::isfinite(x[1]));
}

TEST(MatN, CholeskyFactorReconstructs)
{
    Mat<4, 4> a;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j)
            a(i, j) = 0.3 * (i == j ? 10.0 : 1.0 / (1 + i + j));
    }
    Mat<4, 4> l;
    ASSERT_TRUE(choleskyFactor(a, l));
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            double recon = 0.0; // (L L^T)(i, j)
            for (int k = 0; k < 4; ++k)
                recon += l(i, k) * l(j, k);
            EXPECT_NEAR(recon, a(i, j), 1e-9);
        }
    }
}

TEST(Quat, RpyRoundTrip)
{
    const double roll = 0.1, pitch = -0.2, yaw = 1.3;
    const Quat q = Quat::fromRpy(roll, pitch, yaw);
    // Roll and pitch read back in the x-y-z convention yaw() uses.
    EXPECT_NEAR(std::atan2(2.0 * (q.w * q.x + q.y * q.z),
                           1.0 - 2.0 * (q.x * q.x + q.y * q.y)),
                roll, 1e-12);
    EXPECT_NEAR(std::asin(2.0 * (q.w * q.y - q.z * q.x)), pitch, 1e-12);
    EXPECT_NEAR(q.yaw(), yaw, 1e-12);
}

TEST(Quat, RotationMatchesMatrix)
{
    av::util::Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const Quat q = Quat::fromRpy(rng.uniform(-1, 1),
                                     rng.uniform(-1, 1),
                                     rng.uniform(-3, 3));
        const Vec3 v{rng.uniform(-5, 5), rng.uniform(-5, 5),
                     rng.uniform(-5, 5)};
        const Vec3 a = q.rotate(v);
        // The rotation matrix of a unit quaternion.
        Mat3 m;
        m(0, 0) = 1 - 2 * (q.y * q.y + q.z * q.z);
        m(0, 1) = 2 * (q.x * q.y - q.w * q.z);
        m(0, 2) = 2 * (q.x * q.z + q.w * q.y);
        m(1, 0) = 2 * (q.x * q.y + q.w * q.z);
        m(1, 1) = 1 - 2 * (q.x * q.x + q.z * q.z);
        m(1, 2) = 2 * (q.y * q.z - q.w * q.x);
        m(2, 0) = 2 * (q.x * q.z - q.w * q.y);
        m(2, 1) = 2 * (q.y * q.z + q.w * q.x);
        m(2, 2) = 1 - 2 * (q.x * q.x + q.y * q.y);
        const Vec3 b = mul(m, v);
        EXPECT_NEAR(a.x, b.x, 1e-10);
        EXPECT_NEAR(a.y, b.y, 1e-10);
        EXPECT_NEAR(a.z, b.z, 1e-10);
        // Rotation preserves length.
        EXPECT_NEAR(a.norm(), v.norm(), 1e-10);
    }
}

TEST(Quat, ComposeMatchesSequentialRotation)
{
    const Quat qa = Quat::fromRpy(0, 0, M_PI / 2);
    const Quat qb = Quat::fromRpy(M_PI / 2, 0, 0);
    const Vec3 v{1, 0, 0};
    const Vec3 seq = qa.rotate(qb.rotate(v));
    const Vec3 comp = (qa * qb).rotate(v);
    EXPECT_NEAR(seq.x, comp.x, 1e-12);
    EXPECT_NEAR(seq.y, comp.y, 1e-12);
    EXPECT_NEAR(seq.z, comp.z, 1e-12);
}

TEST(Pose, ApplyInverseIdentity)
{
    const Pose pose{{1, 2, 3}, Quat::fromRpy(0.1, 0.2, 0.3)};
    const Vec3 p{4, 5, 6};
    const Vec3 round = pose.inverse().apply(pose.apply(p));
    EXPECT_NEAR(round.x, p.x, 1e-10);
    EXPECT_NEAR(round.y, p.y, 1e-10);
    EXPECT_NEAR(round.z, p.z, 1e-10);
}

TEST(Pose, ComposeAssociativeWithApply)
{
    const Pose a{{1, 0, 0}, Quat::fromRpy(0, 0, M_PI / 2)};
    const Pose b{{0, 2, 0}, Quat()};
    const Vec3 p{1, 1, 1};
    const Vec3 lhs = a.apply(b.apply(p));
    const Vec3 rhs = a.compose(b).apply(p);
    EXPECT_NEAR(lhs.x, rhs.x, 1e-10);
    EXPECT_NEAR(lhs.y, rhs.y, 1e-10);
    EXPECT_NEAR(lhs.z, rhs.z, 1e-10);
}

TEST(Pose2, LocalWorldRoundTrip)
{
    const Pose2 pose{{10, 20}, M_PI / 3};
    const Vec2 w{13, 24};
    const Vec2 round = pose.apply(pose.toLocal(w));
    EXPECT_NEAR(round.x, w.x, 1e-10);
    EXPECT_NEAR(round.y, w.y, 1e-10);
}

TEST(NormalizeAngle, WrapsIntoRange)
{
    EXPECT_NEAR(normalizeAngle(3 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(normalizeAngle(-3 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(normalizeAngle(0.5), 0.5, 1e-12);
    EXPECT_NEAR(normalizeAngle(2 * M_PI + 0.1), 0.1, 1e-12);
}

TEST(Aabb, RayHitsAndMisses)
{
    const Aabb box{{0, 0, 0}, {1, 1, 1}};
    double t = 0;
    EXPECT_TRUE(rayAabb({-1, 0.5, 0.5}, {1, 0, 0}, box, t));
    EXPECT_NEAR(t, 1.0, 1e-12);
    EXPECT_FALSE(rayAabb({-1, 2.0, 0.5}, {1, 0, 0}, box, t));
    // Ray pointing away.
    EXPECT_FALSE(rayAabb({-1, 0.5, 0.5}, {-1, 0, 0}, box, t));
    // Origin inside: t = 0.
    EXPECT_TRUE(rayAabb({0.5, 0.5, 0.5}, {1, 0, 0}, box, t));
    EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(OrientedBox, RayHit)
{
    OrientedBox box;
    box.pose = {{10, 0}, 0.0};
    box.length = 2.0;
    box.width = 2.0;
    box.zMin = 0.0;
    box.zMax = 2.0;
    double t = 0;
    EXPECT_TRUE(rayOrientedBox({0, 0, 1}, {1, 0, 0}, box, t));
    EXPECT_NEAR(t, 9.0, 1e-9);
    EXPECT_FALSE(rayOrientedBox({0, 5, 1}, {1, 0, 0}, box, t));
    // Over the top of the box.
    EXPECT_FALSE(rayOrientedBox({0, 0, 3}, {1, 0, 0}, box, t));
}

TEST(OrientedBox, AabbCoversCorners)
{
    OrientedBox box;
    box.pose = {{0, 0}, M_PI / 4};
    box.length = 2.0;
    box.width = 2.0;
    const Aabb aabb = box.aabb();
    Vec2 corners[4];
    box.corners(corners);
    for (const Vec2 &c : corners) {
        EXPECT_LE(aabb.lo.x, c.x + 1e-12);
        EXPECT_GE(aabb.hi.x, c.x - 1e-12);
        EXPECT_LE(aabb.lo.y, c.y + 1e-12);
        EXPECT_GE(aabb.hi.y, c.y - 1e-12);
    }
}

} // namespace
