/**
 * @file
 * Unit tests for util/random: determinism, distribution moments,
 * stream forking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "util/random.hh"
#include "util/stats.hh"

namespace {

using av::util::Rng;
using av::util::RunningStats;

TEST(StringHash, MatchesStdHashAtEveryTailLength)
{
    // Oracle for the owned Murmur-style hash: libstdc++'s
    // std::hash<std::string> on this toolchain, over every length
    // from empty through three whole words, so the word loop and
    // each 1..7-byte tail are compared. High bytes check the
    // unsigned byte loads.
    std::string text;
    for (int n = 0; n <= 24; ++n) {
        EXPECT_EQ(av::util::stringHash(text),
                  static_cast<std::uint64_t>(
                      std::hash<std::string>{}(text)))
            << "length " << n;
        text.push_back(static_cast<char>(n % 2 ? 'a' + n : 0x80 + n));
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 7.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 7.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= (v == 2);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(6);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.exponential(0.5));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(7);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, LogNormalMeanCvMoments)
{
    Rng rng(8);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.logNormalMeanCv(50.0, 0.2));
    EXPECT_NEAR(s.mean(), 50.0, 0.5);
    EXPECT_NEAR(s.stddev() / s.mean(), 0.2, 0.01);
    EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng parent(9);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic)
{
    Rng p1(11), p2(11);
    Rng a = p1.fork(5);
    Rng b = p2.fork(5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

} // namespace
