/**
 * @file
 * Topology introspection tests: the registered pub/sub graph must be
 * enumerable exactly — every subscription edge once with its queue
 * depth, advertisers recorded and deduplicated, the same edges in a
 * snapshot taken after traffic, and canonical (sorted) ordering
 * regardless of construction order. This is the runtime half that
 * tools/avgraph cross-validates against.
 */

#include <gtest/gtest.h>

#include "ros/ros.hh"
#include "ros/topology.hh"
#include "sim/ticks.hh"

namespace {

using namespace av;
using namespace av::ros;

struct Msg
{
    int value = 0;
};

struct Fixture
{
    sim::EventQueue eq;
    hw::MachineConfig mcfg;
    hw::Machine machine{eq, mcfg};
    RosGraph graph{machine};
};

Node::Handler<Msg>
noopHandler()
{
    return [](const Stamped<Msg> &, std::function<void()> done) {
        done();
    };
}

TEST(Topology, AdvertisersRecordedAndDeduplicated)
{
    Fixture f;
    auto p1 = f.graph.advertise<Msg>("/t", "alpha");
    auto p2 = f.graph.advertise<Msg>("/t", "alpha"); // same node
    auto p3 = f.graph.advertise<Msg>("/t", "beta");
    auto p4 = f.graph.advertise<Msg>("/t"); // anonymous: not listed
    (void)p1;
    (void)p2;
    (void)p3;
    (void)p4;
    const TopicBase *topic = f.graph.findTopic("/t");
    ASSERT_NE(topic, nullptr);
    EXPECT_EQ(topic->advertisers(),
              (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Topology, SubscriptionExposesQueueDepth)
{
    Fixture f;
    Node node(f.graph, "sink");
    node.subscribe<Msg>("/t", 7, noopHandler());
    const auto subs = f.graph.topic<Msg>("/t").subscribers();
    ASSERT_EQ(subs.size(), 1u);
    EXPECT_EQ(subs[0]->queueDepth(), 7u);
}

TEST(Topology, SnapshotListsEveryEdgeExactlyOnce)
{
    Fixture f;
    Node source(f.graph, "source");
    Node fast(f.graph, "fast");
    Node slow(f.graph, "slow");
    auto pub = f.graph.advertise<Msg>("/fanout", "source");
    (void)pub;
    fast.subscribe<Msg>("/fanout", 1, noopHandler());
    slow.subscribe<Msg>("/fanout", 4, noopHandler());

    const TopologySnapshot snap = topologySnapshot(f.graph);
    EXPECT_EQ(snap.nodes, (std::vector<std::string>{"fast", "slow",
                                                    "source"}));
    ASSERT_EQ(snap.topics.size(), 1u);
    EXPECT_EQ(snap.topics[0].name, "/fanout");
    EXPECT_EQ(snap.topics[0].advertisers,
              (std::vector<std::string>{"source"}));
    // One edge per subscription, each with its own queue depth.
    ASSERT_EQ(snap.edges.size(), 2u);
    EXPECT_EQ(snap.edges[0],
              (TopologyEdge{"/fanout", "fast", 1}));
    EXPECT_EQ(snap.edges[1],
              (TopologyEdge{"/fanout", "slow", 4}));
}

TEST(Topology, SnapshotIsCanonicallySortedRegardlessOfOrder)
{
    Fixture f;
    // Construct deliberately out of lexicographic order.
    Node zeta(f.graph, "zeta");
    Node alpha(f.graph, "alpha");
    auto pz = f.graph.advertise<Msg>("/z", "zeta");
    auto pa = f.graph.advertise<Msg>("/a", "alpha");
    (void)pz;
    (void)pa;
    alpha.subscribe<Msg>("/z", 2, noopHandler());
    zeta.subscribe<Msg>("/a", 3, noopHandler());

    const TopologySnapshot snap = topologySnapshot(f.graph);
    EXPECT_EQ(snap.nodes,
              (std::vector<std::string>{"alpha", "zeta"}));
    ASSERT_EQ(snap.topics.size(), 2u);
    EXPECT_EQ(snap.topics[0].name, "/a");
    EXPECT_EQ(snap.topics[1].name, "/z");
    ASSERT_EQ(snap.edges.size(), 2u);
    EXPECT_EQ(snap.edges[0], (TopologyEdge{"/a", "zeta", 3}));
    EXPECT_EQ(snap.edges[1], (TopologyEdge{"/z", "alpha", 2}));
}

TEST(Topology, SnapshotAfterTraffic)
{
    Fixture f;
    Node a(f.graph, "a");
    Node b(f.graph, "b");
    auto pub = f.graph.advertise<Msg>("/t", "a");
    b.subscribe<Msg>("/t", 2, noopHandler());
    // Exercise the transport so the snapshot reflects a graph that
    // actually moved messages.
    pub.publish(Header{}, Msg{7}, 16);
    f.eq.runUntil();
    const TopologySnapshot snap = topologySnapshot(f.graph);
    ASSERT_EQ(snap.edges.size(), 1u);
    EXPECT_EQ(snap.edges[0], (TopologyEdge{"/t", "b", 2}));
}

} // namespace
