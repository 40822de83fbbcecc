/**
 * @file
 * Unit tests for util/stats: streaming accumulators, quantiles,
 * summaries, reservoir behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/random.hh"
#include "util/stats.hh"

namespace {

using av::util::DistributionSummary;
using av::util::RunningStats;
using av::util::SampleSeries;

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Unbiased variance of this classic sequence is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, SingleSampleVarianceZero)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, MergeEqualsCombined)
{
    RunningStats a, b, whole;
    av::util::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.gaussian(10.0, 3.0);
        (i % 2 ? a : b).add(v);
        whole.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(SampleSeries, QuantilesOfUniformRamp)
{
    SampleSeries s(1 << 16);
    for (int i = 0; i <= 1000; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
    EXPECT_NEAR(s.quantile(0.5), 500.0, 1.0);
    EXPECT_NEAR(s.quantile(0.25), 250.0, 1.0);
    EXPECT_NEAR(s.quantile(0.75), 750.0, 1.0);
}

TEST(SampleSeries, SummaryOrdering)
{
    SampleSeries s;
    av::util::Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        s.add(rng.logNormalMeanCv(20.0, 0.5));
    const DistributionSummary sum = s.summarize();
    EXPECT_EQ(sum.count, 5000u);
    EXPECT_LE(sum.min, sum.q1);
    EXPECT_LE(sum.q1, sum.median);
    EXPECT_LE(sum.median, sum.q3);
    EXPECT_LE(sum.q3, sum.p99);
    EXPECT_LE(sum.p99, sum.max);
    EXPECT_GT(sum.stddev, 0.0);
    EXPECT_NEAR(sum.mean, 20.0, 1.0);
}

TEST(SampleSeries, ReservoirKeepsExactExtremes)
{
    // Capacity far below the sample count: min/max/mean must stay
    // exact because they bypass the reservoir.
    SampleSeries s(128);
    for (int i = 0; i < 100000; ++i)
        s.add(static_cast<double>(i % 1000));
    s.add(-5.0);
    s.add(99999.0);
    EXPECT_EQ(s.count(), 100002u);
    EXPECT_DOUBLE_EQ(s.summarize().min, -5.0);
    EXPECT_DOUBLE_EQ(s.summarize().max, 99999.0);
    EXPECT_EQ(s.samples().size(), 128u);
}

TEST(SampleSeries, ReservoirQuantilesApproximate)
{
    SampleSeries s(4096);
    av::util::Rng rng(5);
    for (int i = 0; i < 200000; ++i)
        s.add(rng.uniform(0.0, 100.0));
    EXPECT_NEAR(s.quantile(0.5), 50.0, 3.0);
    EXPECT_NEAR(s.quantile(0.9), 90.0, 3.0);
}

TEST(SampleSeries, HistogramCountsEverything)
{
    SampleSeries s;
    for (int i = 0; i < 100; ++i)
        s.add(static_cast<double>(i));
    const auto h = s.histogram(10);
    ASSERT_EQ(h.size(), 10u);
    std::size_t total = 0;
    for (std::size_t b : h)
        total += b;
    EXPECT_EQ(total, 100u);
    // Uniform ramp: every bin equally filled.
    for (std::size_t b : h)
        EXPECT_EQ(b, 10u);
}

TEST(SampleSeries, HistogramDegenerate)
{
    SampleSeries s;
    for (int i = 0; i < 7; ++i)
        s.add(3.14);
    const auto h = s.histogram(4);
    std::size_t total = 0;
    for (std::size_t b : h)
        total += b;
    EXPECT_EQ(total, 7u);
}

TEST(SampleSeries, ResetForgets)
{
    SampleSeries s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(SampleSeries, MidStreamReadsChangeNothingLater)
{
    // Capacity 64 so reservoir eviction runs after the first read:
    // an eviction must hit the same slot whether or not quantiles
    // were read before it.
    SampleSeries plain(64), read(64);
    av::util::Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.gaussian(50.0, 15.0);
        plain.add(v);
        read.add(v);
        if (i % 97 == 0)
            (void)read.quantile(0.99);
    }
    EXPECT_EQ(plain.samples(), read.samples());
    for (double q : {0.25, 0.5, 0.75, 0.9, 0.99})
        EXPECT_EQ(plain.quantile(q), read.quantile(q)) << "q=" << q;
    const DistributionSummary a = plain.summarize();
    const DistributionSummary b = read.summarize();
    EXPECT_EQ(a.q1, b.q1);
    EXPECT_EQ(a.median, b.median);
    EXPECT_EQ(a.q3, b.q3);
    EXPECT_EQ(a.p99, b.p99);
}

TEST(SampleSeries, ReadsKeepInsertionOrder)
{
    SampleSeries s;
    for (double v : {3.0, 1.0, 2.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
    (void)s.summarize();
    EXPECT_EQ(s.samples(), (std::vector<double>{3.0, 1.0, 2.0}));
}

/** Property sweep: quantile() is monotone in q for random data. */
class QuantileMonotoneTest : public ::testing::TestWithParam<int>
{};

TEST_P(QuantileMonotoneTest, MonotoneInQ)
{
    SampleSeries s;
    av::util::Rng rng(GetParam());
    for (int i = 0; i < 1000; ++i)
        s.add(rng.gaussian(0.0, 10.0));
    double prev = s.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = s.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 17, 100));

} // namespace
