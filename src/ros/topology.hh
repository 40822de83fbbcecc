/**
 * @file
 * Runtime topology introspection: a canonical, sorted snapshot of
 * what the middleware has actually registered — nodes, topics (with
 * the advertisers that declared them), and subscription edges with
 * their queue depths.
 *
 * This is the runtime half of avgraph (tools/avgraph): the static
 * analyzer extracts the same structure from source text, and a
 * cross-validation test asserts the two are identical after a live
 * drive. Everything is sorted by name so two snapshots of the same
 * graph compare byte-for-byte.
 */

#ifndef AVSCOPE_ROS_TOPOLOGY_HH
#define AVSCOPE_ROS_TOPOLOGY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace av::ros {

class RosGraph;

/** One subscription: @p subscriber consumes @p topic. */
struct TopologyEdge
{
    std::string topic;
    std::string subscriber;   ///< subscribing node's name
    std::size_t queueDepth = 0;

    bool
    operator==(const TopologyEdge &o) const
    {
        return topic == o.topic && subscriber == o.subscriber &&
               queueDepth == o.queueDepth;
    }
};

/** One topic with the nodes that advertised it. */
struct TopologyTopic
{
    std::string name;
    /** Advertising node names, sorted. Empty means the topic is fed
     *  externally (bag replay, probes) — no node advertised it. */
    std::vector<std::string> advertisers;

    bool
    operator==(const TopologyTopic &o) const
    {
        return name == o.name && advertisers == o.advertisers;
    }
};

/** The registered pub/sub graph in canonical (sorted) form. */
struct TopologySnapshot
{
    std::vector<std::string> nodes;     ///< sorted node names
    std::vector<TopologyTopic> topics;  ///< sorted by name
    std::vector<TopologyEdge> edges;    ///< sorted (topic, subscriber)

    bool
    operator==(const TopologySnapshot &o) const
    {
        return nodes == o.nodes && topics == o.topics &&
               edges == o.edges;
    }
};

/**
 * Enumerate @p graph's registered topology. Every subscription edge
 * appears exactly once (a subscription lives under exactly one
 * topic), regardless of fan-out.
 */
TopologySnapshot topologySnapshot(const RosGraph &graph);

} // namespace av::ros

#endif // AVSCOPE_ROS_TOPOLOGY_HH
