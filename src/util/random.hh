/**
 * @file
 * Deterministic random-number generation.
 *
 * Every stochastic component in avscope draws from an av::util::Rng
 * seeded explicitly, so whole-system runs are reproducible bit-for-bit
 * (the paper replays the same ROSBAG for the same reason, §III-A).
 */

#ifndef AVSCOPE_UTIL_RANDOM_HH
#define AVSCOPE_UTIL_RANDOM_HH

#include <cstdint>
#include <string_view>

namespace av::util {

/**
 * 64-bit Murmur-style hash of @p bytes (MurmurHash64A's mixing,
 * seed 0xc70f6907): the algorithm libstdc++ documents for
 * std::hash<std::string> on 64-bit targets, written here so seeds
 * derived from names do not depend on the standard library.
 * Bytes are read little-endian.
 */
std::uint64_t stringHash(std::string_view bytes);

/**
 * Small, fast, deterministic PRNG (xoshiro256**).
 *
 * Not cryptographic. Copyable; copies diverge independently from the
 * copied state, which is handy for forking per-component streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached spare). */
    double gaussian();

    /** Normal with mean @p mu and standard deviation @p sigma. */
    double gaussian(double mu, double sigma);

    /** Exponential with rate @p lambda (mean 1/lambda). */
    double exponential(double lambda);

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p);

    /**
     * Log-normal such that the *mean* of the distribution is
     * @p mean and the coefficient of variation is @p cv. Used for
     * heavy-tailed cost jitter.
     */
    double logNormalMeanCv(double mean, double cv);

    /**
     * Fork an independent stream: hashes this stream's next output
     * with @p salt so sibling components never share a sequence.
     */
    Rng fork(std::uint64_t salt);

  private:
    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace av::util

#endif // AVSCOPE_UTIL_RANDOM_HH
