/**
 * @file
 * Tests of the zero-copy loaned-message transport: the
 * single-subscriber move fast path, shared immutable payloads under
 * fan-out, fault-forced private copies, and the transport counters —
 * plus simulated behaviour pinned to the values the removed
 * deep-copy transport produced (same arrivals, same drops).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ros/ros.hh"
#include "sim/ticks.hh"

namespace {

using namespace av::ros;
using av::hw::Machine;
using av::hw::MachineConfig;
using av::sim::EventQueue;
using av::sim::oneMs;
using av::sim::Tick;

/**
 * Payload that counts its own copies and moves. The zero-copy
 * contract is asserted on these counters, not on the transport's
 * bookkeeping, so the two instrument each other.
 */
struct CopyCounted
{
    int value = 0;
    static int copies;
    static int moves;

    CopyCounted() = default;
    explicit CopyCounted(int v) : value(v) {}
    CopyCounted(const CopyCounted &o) : value(o.value) { ++copies; }
    CopyCounted &
    operator=(const CopyCounted &o)
    {
        value = o.value;
        ++copies;
        return *this;
    }
    CopyCounted(CopyCounted &&o) noexcept : value(o.value)
    {
        ++moves;
    }
    CopyCounted &
    operator=(CopyCounted &&o) noexcept
    {
        value = o.value;
        ++moves;
        return *this;
    }

    static void
    reset()
    {
        copies = 0;
        moves = 0;
    }
};

int CopyCounted::copies = 0;
int CopyCounted::moves = 0;

struct Fixture
{
    EventQueue eq;
    MachineConfig mcfg;
    Machine machine{eq, mcfg};
    RosGraph graph{machine};
};

TEST(TransportV2, SingleSubscriberLoanMovesWithoutCopy)
{
    Fixture f;
    Node node(f.graph, "sink");
    int seen = 0;
    node.subscribe<CopyCounted>(
        "/t", 4,
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            seen = msg.data.value;
            done();
        });
    auto pub = f.graph.advertise<CopyCounted>("/t");

    CopyCounted::reset();
    CopyCounted payload(7);
    pub.publish(Header{}, std::move(payload), 1000);
    f.eq.runUntil();

    EXPECT_EQ(seen, 7);
    // The whole transfer is a chain of moves: caller -> publish
    // argument -> Stamped -> sealed shared payload. Never a copy.
    EXPECT_EQ(CopyCounted::copies, 0);
    EXPECT_GT(CopyCounted::moves, 0);

    const auto c = f.graph.transportCounters();
    EXPECT_EQ(c.published, 1u);
    EXPECT_EQ(c.deliveries, 1u);
    EXPECT_EQ(c.movedPublishes, 1u);
    EXPECT_EQ(c.loanedDeliveries, 1u);
    EXPECT_EQ(c.payloadCopies, 0u);
    EXPECT_EQ(c.forcedCopies, 0u);
}

TEST(TransportV2, FanOutLoanSharesOnePayload)
{
    Fixture f;
    Node a(f.graph, "a"), b(f.graph, "b"), c(f.graph, "c");
    std::vector<const CopyCounted *> addresses;
    const auto handler =
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            addresses.push_back(&msg.data);
            done();
        };
    a.subscribe<CopyCounted>("/t", 4, handler);
    b.subscribe<CopyCounted>("/t", 4, handler);
    c.subscribe<CopyCounted>("/t", 4, handler);

    CopyCounted::reset();
    f.graph.advertise<CopyCounted>("/t").publish(
        Header{}, CopyCounted{3}, 64);
    f.eq.runUntil();

    ASSERT_EQ(addresses.size(), 3u);
    // All three handlers observed the *same* immutable payload.
    EXPECT_EQ(addresses[0], addresses[1]);
    EXPECT_EQ(addresses[1], addresses[2]);
    EXPECT_EQ(CopyCounted::copies, 0);

    const auto counters = f.graph.transportCounters();
    EXPECT_EQ(counters.deliveries, 3u);
    EXPECT_EQ(counters.loanedDeliveries, 3u);
    EXPECT_EQ(counters.payloadCopies, 0u);
}

TEST(TransportV2, DuplicateFaultCopiesPerSubscriber)
{
    Fixture f;
    Node a(f.graph, "a"), b(f.graph, "b");
    std::vector<const CopyCounted *> addresses;
    const auto handler =
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            addresses.push_back(&msg.data);
            done();
        };
    a.subscribe<CopyCounted>("/t", 4, handler);
    b.subscribe<CopyCounted>("/t", 4, handler);
    // One duplicate per publication: each subscriber gets two
    // independent wire trips, none aliasing another.
    f.graph.faults().addPolicy("/t", [](const Header &, Tick) {
        Disruption d;
        d.duplicates = 1;
        return d;
    });

    CopyCounted::reset();
    f.graph.advertise<CopyCounted>("/t").publish(
        Header{}, CopyCounted{3}, 64);
    f.eq.runUntil();

    ASSERT_EQ(addresses.size(), 4u);
    std::sort(addresses.begin(), addresses.end());
    EXPECT_EQ(std::unique(addresses.begin(), addresses.end()),
              addresses.end()); // four private copies
    EXPECT_EQ(CopyCounted::copies, 4);

    const auto counters = f.graph.transportCounters();
    EXPECT_EQ(counters.deliveries, 4u);
    EXPECT_EQ(counters.payloadCopies, 4u);
    EXPECT_EQ(counters.forcedCopies, 4u);
    EXPECT_EQ(counters.loanedDeliveries, 0u);
    EXPECT_EQ(counters.movedPublishes, 0u);
}

TEST(TransportV2, DuplicateFaultForcesPrivateCopiesUnderLoan)
{
    Fixture f;
    Node node(f.graph, "sink");
    std::vector<const CopyCounted *> addresses;
    node.subscribe<CopyCounted>(
        "/t", 8,
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            addresses.push_back(&msg.data);
            done();
        });
    // Every publication gets one duplicate: two independent wire
    // trips, which cannot alias one loaned buffer.
    f.graph.faults().addPolicy("/t", [](const Header &, Tick) {
        Disruption d;
        d.duplicates = 1;
        return d;
    });

    CopyCounted::reset();
    f.graph.advertise<CopyCounted>("/t").publish(
        Header{}, CopyCounted{5}, 64);
    f.eq.runUntil();

    ASSERT_EQ(addresses.size(), 2u);
    EXPECT_NE(addresses[0], addresses[1]);
    EXPECT_EQ(CopyCounted::copies, 2);

    const auto counters = f.graph.transportCounters();
    EXPECT_EQ(counters.deliveries, 2u);
    EXPECT_EQ(counters.payloadCopies, 2u);
    EXPECT_EQ(counters.forcedCopies, 2u);
    EXPECT_EQ(counters.loanedDeliveries, 0u);
    EXPECT_EQ(counters.movedPublishes, 0u);
}

TEST(TransportV2, CorruptFaultDiscardsWithoutCopying)
{
    Fixture f;
    Node node(f.graph, "sink");
    int seen = 0;
    node.subscribe<CopyCounted>(
        "/t", 4,
        [&](const Stamped<CopyCounted> &,
            std::function<void()> done) {
            ++seen;
            done();
        });
    f.graph.faults().addPolicy("/t", [](const Header &, Tick) {
        Disruption d;
        d.corrupt = true;
        return d;
    });

    CopyCounted::reset();
    f.graph.advertise<CopyCounted>("/t").publish(
        Header{}, CopyCounted{5}, 64);
    f.eq.runUntil();

    EXPECT_EQ(seen, 0);
    EXPECT_EQ(CopyCounted::copies, 0);
    const auto counters = f.graph.transportCounters();
    EXPECT_EQ(counters.published, 1u);
    EXPECT_EQ(counters.deliveries, 0u);
    EXPECT_EQ(counters.payloadCopies, 0u);
}

TEST(TransportV2, TapsObserveMessagesAtRest)
{
    // Bags record via taps before the arrival stamp is sealed into
    // the loan: recorded messages must look exactly like v1's
    // (arrival 0), or recorded drives would replay differently.
    Fixture f;
    Node node(f.graph, "sink");
    node.subscribe<CopyCounted>(
        "/t", 4,
        [&](const Stamped<CopyCounted> &,
            std::function<void()> done) { done(); });
    std::vector<Tick> tapArrivals;
    f.graph.topic<CopyCounted>("/t").addTap(
        [&](const Stamped<CopyCounted> &msg) {
            tapArrivals.push_back(msg.arrival);
        });
    f.graph.advertise<CopyCounted>("/t").publish(
        Header{}, CopyCounted{1}, 64);
    f.eq.runUntil();
    ASSERT_EQ(tapArrivals.size(), 1u);
    EXPECT_EQ(tapArrivals[0], 0u);
}

/** One small drive: two subscribers, one slow (drops), N messages. */
struct DriveTrace
{
    std::vector<std::pair<Tick, int>> fastSeen;
    std::vector<std::pair<Tick, int>> slowSeen;
    std::uint64_t dropped = 0;
    std::uint64_t delivered = 0;
};

DriveTrace
runSmallDrive()
{
    Fixture f;
    DriveTrace trace;
    Node fast(f.graph, "fast"), slow(f.graph, "slow");
    fast.subscribe<CopyCounted>(
        "/t", 2,
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            trace.fastSeen.emplace_back(f.eq.now(),
                                        msg.data.value);
            done();
        });
    slow.subscribe<CopyCounted>(
        "/t", 1,
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            trace.slowSeen.emplace_back(f.eq.now(),
                                        msg.data.value);
            f.eq.scheduleAfter(10 * oneMs, done); // slow consumer
        });
    auto pub = f.graph.advertise<CopyCounted>("/t");
    for (int i = 0; i < 20; ++i) {
        f.eq.scheduleAfter(static_cast<Tick>(i) * oneMs,
                           [&pub, i] {
                               pub.publish(Header{},
                                           CopyCounted{i}, 4096);
                           });
    }
    f.eq.runUntil();
    for (const auto &sub : slow.subscriptions()) {
        trace.dropped += sub->stats().dropped;
        trace.delivered += sub->stats().delivered;
    }
    return trace;
}

TEST(TransportV2, CopyAndLoanProduceIdenticalSimulatedBehaviour)
{
    // The loaned transport must be indistinguishable, inside the
    // simulation, from the deep-copy transport it replaced: the
    // expected values are that transport's arrival ticks (150 us
    // base + 4096 B at 2 GB/s after each 1 ms publish), processing
    // order and Table III drop accounting.
    const DriveTrace trace = runSmallDrive();
    std::vector<std::pair<Tick, int>> fast;
    for (int i = 0; i < 20; ++i)
        fast.emplace_back(static_cast<Tick>(i) * oneMs + 152048, i);
    const std::vector<std::pair<Tick, int>> slow = {
        {152048, 0}, {10152048, 9}, {20152048, 19}};
    EXPECT_EQ(trace.fastSeen, fast);
    EXPECT_EQ(trace.slowSeen, slow);
    EXPECT_EQ(trace.dropped, 17u);
    EXPECT_EQ(trace.delivered, 20u);
    EXPECT_GT(trace.dropped, 0u); // the drive really drops
}

TEST(TransportV2, ArrivalStampMatchesDeliveryTick)
{
    Fixture f;
    Node node(f.graph, "sink");
    std::vector<std::pair<Tick, Tick>> stamps; // (now, msg.arrival)
    node.subscribe<CopyCounted>(
        "/t", 4,
        [&](const Stamped<CopyCounted> &msg,
            std::function<void()> done) {
            stamps.emplace_back(f.eq.now(), msg.arrival);
            done();
        });
    auto pub = f.graph.advertise<CopyCounted>("/t");
    pub.publish(Header{}, CopyCounted{1}, 2000);
    f.eq.runUntil();
    ASSERT_EQ(stamps.size(), 1u);
    EXPECT_EQ(stamps[0].first, stamps[0].second);
}

TEST(TransportV2, CountersAggregateAcrossTopics)
{
    Fixture f;
    Node node(f.graph, "sink");
    const auto handler =
        [](const Stamped<CopyCounted> &,
           std::function<void()> done) { done(); };
    node.subscribe<CopyCounted>("/a", 4, handler);
    node.subscribe<CopyCounted>("/b", 4, handler);
    f.graph.advertise<CopyCounted>("/a").publish(Header{},
                                                 CopyCounted{}, 8);
    f.graph.advertise<CopyCounted>("/b").publish(Header{},
                                                 CopyCounted{}, 8);
    f.graph.advertise<CopyCounted>("/b").publish(Header{},
                                                 CopyCounted{}, 8);
    f.eq.runUntil();
    const auto total = f.graph.transportCounters();
    EXPECT_EQ(total.published, 3u);
    EXPECT_EQ(total.deliveries, 3u);
    EXPECT_EQ(total.loanedDeliveries, 3u);
    const auto *topicA = f.graph.findTopic("/a");
    ASSERT_NE(topicA, nullptr);
    EXPECT_EQ(topicA->transportCounters().published, 1u);
}

} // namespace
