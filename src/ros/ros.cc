#include "ros/ros.hh"

#include <algorithm>

namespace av::ros {

Origins
Origins::merged(const Origins &o) const
{
    Origins out = *this;
    if (o.lidar && (!out.lidar || o.lidar < out.lidar))
        out.lidar = o.lidar;
    if (o.camera && (!out.camera || o.camera < out.camera))
        out.camera = o.camera;
    return out;
}

void
TransportFaults::addPolicy(const std::string &topic, Policy policy)
{
    policies_[topic].push_back(std::move(policy));
}

Disruption
TransportFaults::disruptionFor(const std::string &topic,
                               const Header &header,
                               sim::Tick now) const
{
    Disruption out;
    auto it = policies_.find(topic);
    if (it == policies_.end())
        return out;
    for (const Policy &policy : it->second) {
        const Disruption d = policy(header, now);
        out.drop = out.drop || d.drop;
        out.corrupt = out.corrupt || d.corrupt;
        out.extraDelay += d.extraDelay;
        out.duplicates += d.duplicates;
    }
    return out;
}

Node::Node(RosGraph &graph, std::string name)
    : graph_(graph), name_(std::move(name))
{
    graph_.registerNode(this);
}

Node::~Node()
{
    graph_.unregisterNode(this);
}

void
Node::crash()
{
    if (down_)
        return;
    down_ = true;
    for (const auto &sub : subs_)
        sub->clearPending();
}

void
Node::respawn()
{
    if (!down_)
        return;
    down_ = false;
    onRespawn();
    tryDispatch();
}

void
Node::tryDispatch()
{
    if (busy_ || down_)
        return;
    SubscriptionBase *best = nullptr;
    for (const auto &sub : subs_) {
        if (sub->queued() == 0)
            continue;
        if (!best || sub->headArrival() < best->headArrival())
            best = sub.get();
    }
    if (!best)
        return;
    // The activation span opens at dispatch and closes when the
    // handler's simulated execution calls done(). The Span rides in
    // a shared_ptr because done() is a copyable std::function and
    // the span handle is move-only.
    std::shared_ptr<trace::Span> span;
    if (trace::Recorder *rec = graph_.traceRecorder())
        span = std::make_shared<trace::Span>(rec->beginActivation(
            rec->intern(name_), rec->intern(best->topicName()),
            best->headSeq(), best->headArrival(),
            graph_.eventQueue().now()));
    busy_ = true;
    best->dispatchHead([this, span] {
        AV_ASSERT(busy_, "done() called while node idle: ", name_);
        if (span)
            span->end(graph_.eventQueue().now());
        busy_ = false;
        tryDispatch();
    });
}

RosGraph::RosGraph(hw::Machine &machine,
                   const TransportConfig &transport)
    : machine_(machine), transport_(transport)
{
}

std::vector<const TopicBase *>
RosGraph::topics() const
{
    std::vector<const TopicBase *> out;
    out.reserve(topics_.size());
    for (const auto &[name, topic] : topics_)
        out.push_back(topic.get());
    return out;
}

TransportCounters
RosGraph::transportCounters() const
{
    TransportCounters out;
    for (const auto &[name, topic] : topics_)
        out.add(topic->transportCounters());
    return out;
}

void
RosGraph::setTraceRecorder(trace::Recorder *recorder)
{
    recorder_ = recorder;
    for (const auto &[name, topic] : topics_)
        topic->setTraceRecorder(recorder);
}

void
RosGraph::setQueueDepthOverrides(
    std::vector<QueueDepthOverride> overrides)
{
    queueOverrides_ = std::move(overrides);
}

std::size_t
RosGraph::effectiveQueueDepth(const std::string &topic,
                              const std::string &node,
                              std::size_t declared) const
{
    std::size_t depth = declared;
    for (const QueueDepthOverride &o : queueOverrides_) {
        if (o.topic == topic && o.node == node)
            depth = o.depth;
    }
    return depth;
}

TopicBase *
RosGraph::findTopic(const std::string &name)
{
    auto it = topics_.find(name);
    return it == topics_.end() ? nullptr : it->second.get();
}

Node *
RosGraph::findNode(const std::string &name)
{
    for (Node *n : nodes_) {
        if (n->name() == name)
            return n;
    }
    return nullptr;
}

void
RosGraph::registerNode(Node *node)
{
    for (const Node *n : nodes_) {
        if (n->name() == node->name())
            util::panic("duplicate node name: ", node->name());
    }
    nodes_.push_back(node);
}

void
RosGraph::unregisterNode(Node *node)
{
    nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node),
                 nodes_.end());
}

} // namespace av::ros
