/**
 * @file
 * Unit tests for sim/periodic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/periodic.hh"
#include "sim/ticks.hh"

namespace {

using av::sim::EventQueue;
using av::sim::oneMs;
using av::sim::PeriodicTask;
using av::sim::Tick;

TEST(PeriodicTask, FiresAtExactPeriods)
{
    EventQueue eq;
    std::vector<Tick> times;
    PeriodicTask task(eq, 100 * oneMs,
                      [&](std::uint64_t) { times.push_back(eq.now()); });
    task.start();
    eq.runUntil(350 * oneMs);
    ASSERT_EQ(times.size(), 4u); // t = 0, 100, 200, 300 ms
    EXPECT_EQ(times[0], 0u);
    EXPECT_EQ(times[3], 300 * oneMs);
}

TEST(PeriodicTask, PhaseOffset)
{
    EventQueue eq;
    std::vector<Tick> times;
    PeriodicTask task(eq, 100 * oneMs,
                      [&](std::uint64_t) { times.push_back(eq.now()); });
    task.start(30 * oneMs);
    eq.runUntil(250 * oneMs);
    ASSERT_EQ(times.size(), 3u); // 30, 130, 230
    EXPECT_EQ(times[0], 30 * oneMs);
    EXPECT_EQ(times[2], 230 * oneMs);
}

TEST(PeriodicTask, IndexIncrements)
{
    EventQueue eq;
    std::vector<std::uint64_t> indices;
    PeriodicTask task(eq, oneMs,
                      [&](std::uint64_t i) { indices.push_back(i); });
    task.start();
    eq.runUntil(3 * oneMs);
    EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(PeriodicTask, StopCancels)
{
    EventQueue eq;
    int fired = 0;
    PeriodicTask task(eq, oneMs, [&](std::uint64_t) { ++fired; });
    task.start();
    eq.runUntil(2 * oneMs);
    task.stop();
    eq.runUntil(10 * oneMs);
    EXPECT_EQ(fired, 3);
    EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, CallbackMayStop)
{
    EventQueue eq;
    int fired = 0;
    PeriodicTask task(eq, oneMs, [&](std::uint64_t i) {
        ++fired;
        if (i == 1) {
            // stop() from inside the callback must cancel cleanly
        }
    });
    task.start();
    eq.runUntil(oneMs);
    task.stop();
    eq.runUntil(5 * oneMs);
    EXPECT_EQ(fired, 2);
}

TEST(PeriodicTask, JitterStaysBounded)
{
    EventQueue eq;
    std::vector<Tick> times;
    PeriodicTask task(eq, 100 * oneMs,
                      [&](std::uint64_t) { times.push_back(eq.now()); });
    task.start(0, 0.05, 7);
    eq.runUntil(5000 * oneMs);
    ASSERT_GT(times.size(), 10u);
    for (std::size_t i = 1; i < times.size(); ++i) {
        const double gap_ms =
            av::sim::ticksToMs(times[i] - times[i - 1]);
        EXPECT_GE(gap_ms, 95.0 - 1e-6);
        EXPECT_LE(gap_ms, 105.0 + 1e-6);
    }
}

TEST(PeriodicTask, DestructorCancels)
{
    EventQueue eq;
    int fired = 0;
    {
        PeriodicTask task(eq, oneMs, [&](std::uint64_t) { ++fired; });
        task.start();
        eq.runUntil(oneMs);
    }
    eq.runUntil(10 * oneMs);
    EXPECT_EQ(fired, 2);
}

} // namespace
