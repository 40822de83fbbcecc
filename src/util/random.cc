#include "util/random.hh"

#include <cmath>
#include <cstddef>

namespace av::util {

namespace {

constexpr std::uint64_t kMurmurMul = 0xc6a4a7935bd1e995ull;

std::uint64_t
shiftMix(std::uint64_t v)
{
    return v ^ (v >> 47);
}

/** @p n (1..8) bytes from @p p as a little-endian integer. */
std::uint64_t
loadLittleEndian(const char *p, std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = n; i-- > 0;)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
stringHash(std::string_view bytes)
{
    const std::size_t len = bytes.size();
    const std::size_t whole = len & ~std::size_t{7};
    std::uint64_t hash =
        0xc70f6907ull ^ (static_cast<std::uint64_t>(len) * kMurmurMul);
    for (std::size_t i = 0; i < whole; i += 8) {
        const std::uint64_t word =
            loadLittleEndian(bytes.data() + i, 8);
        hash ^= shiftMix(word * kMurmurMul) * kMurmurMul;
        hash *= kMurmurMul;
    }
    if (len != whole) {
        hash ^= loadLittleEndian(bytes.data() + whole, len - whole);
        hash *= kMurmurMul;
    }
    return shiftMix(shiftMix(hash) * kMurmurMul);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    hasSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mu, double sigma)
{
    return mu + sigma * gaussian();
}

double
Rng::exponential(double lambda)
{
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::logNormalMeanCv(double mean, double cv)
{
    // For LogNormal(mu, sigma): mean = exp(mu + sigma^2/2),
    // cv^2 = exp(sigma^2) - 1.
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(mu + std::sqrt(sigma2) * gaussian());
}

Rng
Rng::fork(std::uint64_t salt)
{
    return Rng(next() ^ (salt * 0x2545f4914f6cdd1dull));
}

} // namespace av::util
