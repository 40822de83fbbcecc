#include "pointcloud/cloud.hh"

#include <cmath>

namespace av::pc {

void
transformInPlace(PointCloud &cloud, const geom::Pose &pose)
{
    for (Point &p : cloud.points) {
        const geom::Vec3 v = pose.apply(p.vec());
        p.x = static_cast<float>(v.x);
        p.y = static_cast<float>(v.y);
        p.z = static_cast<float>(v.z);
    }
}

geom::Vec3
centroid(const PointCloud &cloud)
{
    if (cloud.empty())
        return {};
    geom::Vec3 acc;
    for (const Point &p : cloud.points)
        acc += p.vec();
    return acc / static_cast<double>(cloud.size());
}

std::size_t
meanAndCovariance(const PointCloud &cloud,
                  const std::vector<std::uint32_t> &indices,
                  geom::Vec3 &mean, geom::Mat3 &cov)
{
    mean = {};
    cov = geom::Mat3();
    if (indices.empty())
        return 0;
    for (std::uint32_t i : indices)
        mean += cloud[i].vec();
    mean = mean / static_cast<double>(indices.size());
    if (indices.size() < 2)
        return indices.size();
    for (std::uint32_t i : indices) {
        const geom::Vec3 d = cloud[i].vec() - mean;
        cov += geom::outer(d, d);
    }
    cov = cov * (1.0 / static_cast<double>(indices.size() - 1));
    return indices.size();
}

std::size_t
meanAndCovariance(const PointCloud &cloud, geom::Vec3 &mean,
                  geom::Mat3 &cov)
{
    std::vector<std::uint32_t> all(cloud.size());
    for (std::uint32_t i = 0; i < cloud.size(); ++i)
        all[i] = i;
    return meanAndCovariance(cloud, all, mean, cov);
}

} // namespace av::pc
