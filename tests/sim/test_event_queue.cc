/**
 * @file
 * Unit tests for the discrete-event core: ordering, cancellation,
 * time semantics.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace {

using av::sim::EventQueue;
using av::sim::maxTick;
using av::sim::Tick;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, FifoAtEqualTime)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, DescheduleSuppresses)
{
    EventQueue eq;
    bool fired = false;
    const auto id = eq.schedule(5, [&] { fired = true; });
    eq.deschedule(id);
    eq.runUntil();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleUnknownIsNoop)
{
    EventQueue eq;
    eq.deschedule(0);
    eq.deschedule(12345);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DoubleDescheduleKeepsLiveCountSane)
{
    EventQueue eq;
    const auto id = eq.schedule(5, [] {});
    eq.schedule(6, [] {});
    eq.deschedule(id);
    eq.deschedule(id);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.runUntil(), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsScheduledFromEvents)
{
    EventQueue eq;
    std::vector<Tick> fire_times;
    eq.schedule(10, [&] {
        fire_times.push_back(eq.now());
        eq.scheduleAfter(15, [&] { fire_times.push_back(eq.now()); });
    });
    eq.runUntil();
    EXPECT_EQ(fire_times, (std::vector<Tick>{10, 25}));
}

TEST(EventQueue, RunUntilLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(101, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    eq.runUntil(101);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClockAdvancesToHorizon)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
    // Scheduling earlier than the horizon is the past and must die.
    EXPECT_DEATH(eq.schedule(400, [] {}), "past");
}

TEST(EventQueue, StepOneAtATime)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(EventQueue, ManyEventsStress)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    for (Tick t = 1; t <= 10000; ++t)
        eq.schedule(t, [&sum, t] { sum += t; });
    const auto ran = eq.runUntil();
    EXPECT_EQ(ran, 10000u);
    EXPECT_EQ(sum, 10000ull * 10001ull / 2ull);
}

} // namespace
