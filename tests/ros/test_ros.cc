/**
 * @file
 * Unit tests for the minros middleware: pub/sub, transport latency,
 * bounded queues + drops, node dispatch, origin tracing, bags.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ros/bag.hh"
#include "ros/ros.hh"
#include "sim/ticks.hh"

namespace {

using namespace av::ros;
using av::hw::Machine;
using av::hw::MachineConfig;
using av::sim::EventQueue;
using av::sim::oneMs;
using av::sim::oneUs;
using av::sim::Tick;

struct IntMsg
{
    int value = 0;
};

/** Payload that counts its deep copies (moves are free). */
struct CountedMsg
{
    int value = 0;
    static int copies;

    CountedMsg() = default;
    explicit CountedMsg(int v) : value(v) {}
    CountedMsg(const CountedMsg &o) : value(o.value) { ++copies; }
    CountedMsg &
    operator=(const CountedMsg &o)
    {
        value = o.value;
        ++copies;
        return *this;
    }
    CountedMsg(CountedMsg &&) noexcept = default;
    CountedMsg &operator=(CountedMsg &&) noexcept = default;
};

int CountedMsg::copies = 0;

struct Fixture
{
    EventQueue eq;
    MachineConfig mcfg;
    Machine machine{eq, mcfg};
    RosGraph graph{machine};
};

TEST(Ros, PublishReachesSubscriberAfterTransport)
{
    Fixture f;
    Node node(f.graph, "consumer");
    std::vector<std::pair<Tick, int>> seen;
    node.subscribe<IntMsg>(
        "/numbers", 10,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seen.emplace_back(f.eq.now(), msg.data.value);
            done();
        });
    auto pub = f.graph.advertise<IntMsg>("/numbers");
    Header h;
    h.stamp = 0;
    pub.publish(h, IntMsg{42}, 1000);
    f.eq.runUntil();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, 42);
    // transport = 150 us base + 1000 B / 2 GB/s = 150.5 us
    EXPECT_NEAR(static_cast<double>(seen[0].first),
                150.0 * oneUs + 500.0, 10.0);
}

TEST(Ros, LargerMessagesArriveLater)
{
    Fixture f;
    Node node(f.graph, "consumer");
    std::vector<Tick> arrivals;
    node.subscribe<IntMsg>(
        "/t", 10,
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            arrivals.push_back(f.eq.now());
            done();
        });
    auto pub = f.graph.advertise<IntMsg>("/t");
    pub.publish(Header{}, IntMsg{1}, 4u << 20); // 4 MiB
    f.eq.runUntil();
    // 4 MiB at 2 GB/s ~ 2.1 ms plus base.
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_GT(arrivals[0], 2 * oneMs);
}

TEST(Ros, FanOutToMultipleSubscribers)
{
    Fixture f;
    Node a(f.graph, "a"), b(f.graph, "b");
    int count = 0;
    const auto handler =
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            ++count;
            done();
        };
    a.subscribe<IntMsg>("/t", 5, handler);
    b.subscribe<IntMsg>("/t", 5, handler);
    f.graph.advertise<IntMsg>("/t").publish(Header{}, IntMsg{}, 64);
    f.eq.runUntil();
    EXPECT_EQ(count, 2);
}

TEST(Ros, BusyNodeQueuesMessages)
{
    Fixture f;
    Node node(f.graph, "slow");
    std::vector<Tick> processed;
    node.subscribe<IntMsg>(
        "/t", 10,
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            processed.push_back(f.eq.now());
            // Simulate 10 ms of work before calling done().
            f.eq.scheduleAfter(10 * oneMs, done);
        });
    auto pub = f.graph.advertise<IntMsg>("/t");
    for (int i = 0; i < 3; ++i)
        pub.publish(Header{}, IntMsg{i}, 64);
    f.eq.runUntil();
    ASSERT_EQ(processed.size(), 3u);
    // Second starts only after first's done() at ~10 ms.
    EXPECT_GE(processed[1], 10 * oneMs);
    EXPECT_GE(processed[2], 20 * oneMs);
}

TEST(Ros, QueueDepthOneDropsOldest)
{
    Fixture f;
    Node node(f.graph, "detector");
    std::vector<int> seen;
    node.subscribe<IntMsg>(
        "/image_raw", 1,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seen.push_back(msg.data.value);
            f.eq.scheduleAfter(100 * oneMs, done); // very slow node
        });
    auto pub = f.graph.advertise<IntMsg>("/image_raw");
    // Publish 5 messages back-to-back: first dispatches, then the
    // queue holds one; values 1..3 get overwritten by 4.
    for (int i = 0; i < 5; ++i)
        pub.publish(Header{}, IntMsg{i}, 64);
    f.eq.runUntil();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 0);
    EXPECT_EQ(seen[1], 4);
    const auto &stats = node.subscriptions()[0]->stats();
    EXPECT_EQ(stats.delivered, 5u);
    EXPECT_EQ(stats.dropped, 3u);
    EXPECT_EQ(stats.processed, 2u);
}

TEST(Ros, DeepQueueKeepsNewestInArrivalOrder)
{
    Fixture f;
    Node node(f.graph, "tracker");
    std::vector<int> seen;
    node.subscribe<IntMsg>(
        "/t", 3, // not a power of two
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seen.push_back(msg.data.value);
            f.eq.scheduleAfter(100 * oneMs, done);
        });
    auto pub = f.graph.advertise<IntMsg>("/t");
    // Three bursts of 7, one second apart: each burst drains (4 x
    // 100 ms) before the next, so the queue fills and empties three
    // times. The first message of a burst dispatches at once; of the
    // 6 that queue behind it only the newest 3 survive.
    for (int burst = 0; burst < 3; ++burst)
        f.eq.schedule(static_cast<Tick>(burst) * 1000 * oneMs,
                      [&pub, burst] {
                          for (int i = 0; i < 7; ++i)
                              pub.publish(Header{},
                                          IntMsg{burst * 7 + i}, 64);
                      });
    f.eq.runUntil();
    EXPECT_EQ(seen, (std::vector<int>{0, 4, 5, 6, 7, 11, 12, 13, 14,
                                      18, 19, 20}));
    const auto &stats = node.subscriptions()[0]->stats();
    EXPECT_EQ(stats.dropped, 9u);
    EXPECT_EQ(stats.delivered, stats.processed + stats.dropped);
    EXPECT_EQ(node.subscriptions()[0]->queued(), 0u);
}

TEST(Ros, NoDropsWhenFastEnough)
{
    Fixture f;
    Node node(f.graph, "fast");
    node.subscribe<IntMsg>(
        "/t", 1,
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            done(); // instantaneous
        });
    auto pub = f.graph.advertise<IntMsg>("/t");
    for (int i = 0; i < 10; ++i) {
        f.eq.scheduleAfter(static_cast<Tick>(i) * oneMs, [&pub] {
            pub.publish(Header{}, IntMsg{}, 64);
        });
    }
    f.eq.runUntil();
    EXPECT_EQ(node.subscriptions()[0]->stats().dropped, 0u);
    EXPECT_EQ(node.subscriptions()[0]->stats().processed, 10u);
}

TEST(Ros, EarliestArrivalDispatchedFirstAcrossSubscriptions)
{
    Fixture f;
    Node node(f.graph, "fusion");
    std::vector<std::string> order;
    bool busy_hold = true;
    node.subscribe<IntMsg>(
        "/first", 5,
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            order.push_back("first");
            if (busy_hold) {
                busy_hold = false;
                f.eq.scheduleAfter(5 * oneMs, done);
            } else {
                done();
            }
        });
    node.subscribe<IntMsg>(
        "/second", 5,
        [&](const Stamped<IntMsg> &, std::function<void()> done) {
            order.push_back("second");
            done();
        });
    // /first published at t=0 occupies the node; then one message on
    // /second (arrives ~1 ms) and one more on /first (~2 ms). When
    // the node frees at ~5 ms it must take /second first.
    f.graph.advertise<IntMsg>("/first").publish(Header{}, IntMsg{}, 64);
    f.eq.scheduleAfter(1 * oneMs, [&f] {
        f.graph.advertise<IntMsg>("/second").publish(Header{},
                                                     IntMsg{}, 64);
    });
    f.eq.scheduleAfter(2 * oneMs, [&f] {
        f.graph.advertise<IntMsg>("/first").publish(Header{},
                                                    IntMsg{}, 64);
    });
    f.eq.runUntil();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "first");
    EXPECT_EQ(order[1], "second");
    EXPECT_EQ(order[2], "first");
}

TEST(Ros, OriginsMergeKeepsOldest)
{
    Origins a{100, 0};
    Origins b{50, 200};
    const Origins m = a.merged(b);
    EXPECT_EQ(m.lidar, 50u);
    EXPECT_EQ(m.camera, 200u);
    const Origins n = b.merged(a);
    EXPECT_EQ(n.lidar, 50u);
    EXPECT_EQ(n.camera, 200u);
}

TEST(Ros, OriginsCarriedThroughPipeline)
{
    Fixture f;
    Node stage1(f.graph, "stage1");
    Node stage2(f.graph, "stage2");
    Tick seen_origin = 0;
    stage1.subscribe<IntMsg>(
        "/raw", 5,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            Header h;
            h.stamp = f.eq.now();
            h.origins = msg.header.origins; // forward lineage
            f.graph.advertise<IntMsg>("/derived").publish(
                h, msg.data, 64);
            done();
        });
    stage2.subscribe<IntMsg>(
        "/derived", 5,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seen_origin = msg.header.origins.lidar;
            done();
        });
    Header h;
    h.stamp = 0;
    h.origins.lidar = 12345;
    f.graph.advertise<IntMsg>("/raw").publish(h, IntMsg{}, 64);
    f.eq.runUntil();
    EXPECT_EQ(seen_origin, 12345u);
}

TEST(Ros, SequenceNumbersIncrement)
{
    Fixture f;
    Node node(f.graph, "n");
    std::vector<std::uint64_t> seqs;
    node.subscribe<IntMsg>(
        "/t", 10,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seqs.push_back(msg.header.seq);
            done();
        });
    auto pub = f.graph.advertise<IntMsg>("/t");
    for (int i = 0; i < 3; ++i)
        pub.publish(Header{}, IntMsg{}, 8);
    f.eq.runUntil();
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Ros, DuplicateNodeNamePanics)
{
    Fixture f;
    Node a(f.graph, "same");
    EXPECT_DEATH(Node(f.graph, "same"), "duplicate node name");
}

TEST(Ros, TopicTypeMismatchPanics)
{
    Fixture f;
    f.graph.topic<IntMsg>("/typed");
    struct Other
    {
        double d;
    };
    EXPECT_DEATH(f.graph.topic<Other>("/typed"), "different type");
}

TEST(Bag, RecordAndReplayPreservesTiming)
{
    // Record into a channel, as world::recordDrive does...
    av::ros::Bag bag;
    av::ros::BagChannel<IntMsg> &chan = bag.channel<IntMsg>("/points");
    for (int i = 0; i < 3; ++i) {
        Stamped<IntMsg> msg;
        msg.header.stamp = static_cast<Tick>(i) * 100 * oneMs;
        msg.data = IntMsg{i};
        msg.bytes = 64;
        chan.add(std::move(msg));
    }
    EXPECT_EQ(bag.totalMessages(), 3u);

    // ...replay into a fresh graph.
    Fixture play;
    Node node(play.graph, "sink");
    std::vector<std::pair<Tick, int>> seen;
    node.subscribe<IntMsg>(
        "/points", 10,
        [&](const Stamped<IntMsg> &msg, std::function<void()> done) {
            seen.emplace_back(play.eq.now(), msg.data.value);
            done();
        });
    bag.replay(play.graph);
    play.eq.runUntil();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].second, 0);
    EXPECT_EQ(seen[2].second, 2);
    // Replayed publication at recorded stamps + transport.
    EXPECT_NEAR(av::sim::ticksToMs(seen[2].first), 200.15, 0.1);
}

TEST(Bag, ReplayCopiesEachMessageWhenItFires)
{
    av::ros::Bag bag;
    av::ros::BagChannel<CountedMsg> &chan =
        bag.channel<CountedMsg>("/c");
    for (int i = 0; i < 3; ++i) {
        Stamped<CountedMsg> msg;
        msg.header.seq = static_cast<std::uint64_t>(i);
        msg.header.stamp = static_cast<Tick>(i + 1) * 100 * oneMs;
        msg.data = CountedMsg(i);
        msg.bytes = 64;
        chan.add(std::move(msg));
    }
    const auto expectPristine = [&chan] {
        ASSERT_EQ(chan.count(), 3u);
        for (int i = 0; i < 3; ++i) {
            const Stamped<CountedMsg> &msg =
                chan.messages()[static_cast<std::size_t>(i)];
            EXPECT_EQ(msg.header.seq, static_cast<std::uint64_t>(i));
            EXPECT_EQ(msg.arrival, 0u);
            EXPECT_EQ(msg.data.value, i);
        }
    };

    // Scheduling copies nothing; each message is copied once, when
    // its event fires (the sensor driver's fresh frame), and moved
    // into the loan from there.
    Fixture play;
    Node node(play.graph, "sink");
    std::vector<int> seen;
    node.subscribe<CountedMsg>(
        "/c", 10,
        [&](const Stamped<CountedMsg> &msg, std::function<void()> done) {
            seen.push_back(msg.data.value);
            done();
        });
    CountedMsg::copies = 0;
    bag.replay(play.graph);
    EXPECT_EQ(CountedMsg::copies, 0);
    play.eq.runUntil(150 * oneMs);
    EXPECT_EQ(CountedMsg::copies, 1);
    play.eq.runUntil();
    EXPECT_EQ(CountedMsg::copies, 3);
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
    expectPristine();

    // A duplicating fault still hands every delivery a private copy,
    // aliasing neither the other delivery nor the bag.
    Fixture dup;
    Node sink(dup.graph, "sink");
    std::vector<const CountedMsg *> addresses;
    sink.subscribe<CountedMsg>(
        "/c", 10,
        [&](const Stamped<CountedMsg> &msg, std::function<void()> done) {
            addresses.push_back(&msg.data);
            done();
        });
    dup.graph.faults().addPolicy("/c", [](const Header &, Tick) {
        Disruption d;
        d.duplicates = 1;
        return d;
    });
    CountedMsg::copies = 0;
    bag.replay(dup.graph);
    EXPECT_EQ(CountedMsg::copies, 0);
    dup.eq.runUntil();
    ASSERT_EQ(addresses.size(), 6u);
    for (std::size_t i = 0; i < addresses.size(); ++i) {
        EXPECT_NE(addresses[i], &chan.messages()[i / 2].data);
        if (i % 2 == 1) {
            EXPECT_NE(addresses[i], addresses[i - 1]);
        }
    }
    // Per message: the fire-time copy plus one per wire trip.
    EXPECT_EQ(CountedMsg::copies, 3 * 3);
    expectPristine();
}

TEST(Bag, ChannelTypeMismatchPanics)
{
    av::ros::Bag bag;
    bag.channel<IntMsg>("/x");
    struct Other
    {
        int i;
    };
    EXPECT_DEATH(bag.channel<Other>("/x"), "different type");
}

} // namespace
