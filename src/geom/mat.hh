/**
 * @file
 * Small fixed-size dense matrices and the solvers the estimation
 * stack needs: 3x3 covariance work for NDT voxels, 6x6 Newton steps
 * for NDT pose optimization, and the UKF's n x n covariance algebra
 * (Cholesky square roots, inverses).
 */

#ifndef AVSCOPE_GEOM_MAT_HH
#define AVSCOPE_GEOM_MAT_HH

#include <array>
#include <cmath>
#include <cstddef>

#include "geom/vec.hh"

namespace av::geom {

/**
 * Row-major fixed-size matrix.
 */
template <std::size_t R, std::size_t C>
class Mat
{
  public:
    Mat() { data_.fill(0.0); }

    /** Identity (square matrices only). */
    static Mat
    identity()
    {
        static_assert(R == C, "identity requires a square matrix");
        Mat m;
        for (std::size_t i = 0; i < R; ++i)
            m(i, i) = 1.0;
        return m;
    }

    double operator()(std::size_t r, std::size_t c) const
    { return data_[r * C + c]; }
    double &operator()(std::size_t r, std::size_t c)
    { return data_[r * C + c]; }

    Mat
    operator+(const Mat &o) const
    {
        Mat out;
        for (std::size_t i = 0; i < R * C; ++i)
            out.data_[i] = data_[i] + o.data_[i];
        return out;
    }

    Mat
    operator-(const Mat &o) const
    {
        Mat out;
        for (std::size_t i = 0; i < R * C; ++i)
            out.data_[i] = data_[i] - o.data_[i];
        return out;
    }

    Mat
    operator*(double s) const
    {
        Mat out;
        for (std::size_t i = 0; i < R * C; ++i)
            out.data_[i] = data_[i] * s;
        return out;
    }

    Mat &
    operator+=(const Mat &o)
    {
        for (std::size_t i = 0; i < R * C; ++i)
            data_[i] += o.data_[i];
        return *this;
    }

    template <std::size_t C2>
    Mat<R, C2>
    operator*(const Mat<C, C2> &o) const
    {
        Mat<R, C2> out;
        for (std::size_t i = 0; i < R; ++i) {
            for (std::size_t k = 0; k < C; ++k) {
                const double a = (*this)(i, k);
                if (a == 0.0)
                    continue;
                for (std::size_t j = 0; j < C2; ++j)
                    out(i, j) += a * o(k, j);
            }
        }
        return out;
    }

    /** Matrix-vector product with a std::array. */
    std::array<double, R>
    apply(const std::array<double, C> &v) const
    {
        std::array<double, R> out{};
        for (std::size_t i = 0; i < R; ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < C; ++j)
                acc += (*this)(i, j) * v[j];
            out[i] = acc;
        }
        return out;
    }

  private:
    std::array<double, R * C> data_;
};

using Mat3 = Mat<3, 3>;
using Mat6 = Mat<6, 6>;

/** Mat3 * Vec3. */
inline Vec3
mul(const Mat3 &m, const Vec3 &v)
{
    return {m(0, 0) * v.x + m(0, 1) * v.y + m(0, 2) * v.z,
            m(1, 0) * v.x + m(1, 1) * v.y + m(1, 2) * v.z,
            m(2, 0) * v.x + m(2, 1) * v.y + m(2, 2) * v.z};
}

/** Outer product v * v^T. */
inline Mat3
outer(const Vec3 &a, const Vec3 &b)
{
    Mat3 m;
    const double av[3] = {a.x, a.y, a.z};
    const double bv[3] = {b.x, b.y, b.z};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            m(i, j) = av[i] * bv[j];
    return m;
}

/** Determinant of a 3x3 matrix. */
double det3(const Mat3 &m);

/**
 * Inverse of a 3x3 matrix via adjugate.
 * @param m input
 * @param ok set false when |det| < 1e-12 (result is then identity)
 */
Mat3 inverse3(const Mat3 &m, bool *ok = nullptr);

/**
 * Regularize a covariance so its smallest eigenvalue is at least
 * @p min_eig_ratio times its largest (Magnusson's NDT trick for
 * near-singular voxel covariances). Symmetric input assumed.
 */
Mat3 regularizeCovariance(const Mat3 &cov, double min_eig_ratio = 0.01);

/**
 * Solve the SPD system A x = b with Cholesky; falls back to adding
 * progressively larger diagonal damping (Levenberg style) when A is
 * not positive definite.
 *
 * @return true on success.
 */
template <std::size_t N>
bool
solveCholesky(const Mat<N, N> &a, const std::array<double, N> &b,
              std::array<double, N> &x)
{
    for (int attempt = 0; attempt < 6; ++attempt) {
        const double damping =
            attempt == 0 ? 0.0 : std::pow(10.0, attempt - 4);
        Mat<N, N> l;
        bool ok = true;
        for (std::size_t i = 0; i < N && ok; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                double sum = a(i, j) + (i == j ? damping : 0.0);
                for (std::size_t k = 0; k < j; ++k)
                    sum -= l(i, k) * l(j, k);
                if (i == j) {
                    if (sum <= 1e-12) {
                        ok = false;
                        break;
                    }
                    l(i, i) = std::sqrt(sum);
                } else {
                    l(i, j) = sum / l(j, j);
                }
            }
        }
        if (!ok)
            continue;
        // Forward substitution: L y = b.
        std::array<double, N> y{};
        for (std::size_t i = 0; i < N; ++i) {
            double sum = b[i];
            for (std::size_t k = 0; k < i; ++k)
                sum -= l(i, k) * y[k];
            y[i] = sum / l(i, i);
        }
        // Back substitution: L^T x = y.
        for (std::size_t ii = N; ii-- > 0;) {
            double sum = y[ii];
            for (std::size_t k = ii + 1; k < N; ++k)
                sum -= l(k, ii) * x[k];
            x[ii] = sum / l(ii, ii);
        }
        return true;
    }
    return false;
}

/**
 * Lower-triangular Cholesky factor of an SPD matrix (for UKF sigma
 * points). @return true on success; on failure @p l is untouched.
 */
template <std::size_t N>
bool
choleskyFactor(const Mat<N, N> &a, Mat<N, N> &l)
{
    Mat<N, N> out;
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                sum -= out(i, k) * out(j, k);
            if (i == j) {
                if (sum <= 0.0)
                    return false;
                out(i, i) = std::sqrt(sum);
            } else {
                out(i, j) = sum / out(j, j);
            }
        }
    }
    l = out;
    return true;
}

} // namespace av::geom

#endif // AVSCOPE_GEOM_MAT_HH
