/**
 * @file
 * "minros": the publish/subscribe middleware the stack runs on.
 *
 * Reproduces the ROS 1 semantics the paper's methodology depends on:
 *
 *  - typed topics with multiple subscribers (Fig. 2);
 *  - bounded per-subscription queues that drop the *oldest* message
 *    when a new one arrives unconsumed — the drop statistics of
 *    Table III fall out of these counters;
 *  - transport latency proportional to message size, so
 *    communication cost is part of every computation path (the
 *    paper's critique of prior work that sums isolated node times);
 *  - single-threaded nodes: one callback in flight per node, queued
 *    inputs wait (the Autoware/ROS spinner model);
 *  - headers that carry the originating sensor timestamps through
 *    the pipeline, which is exactly how the paper traces end-to-end
 *    computation paths (§III-B).
 *
 * Node *callbacks do not execute on the host clock*: a handler runs
 * its algorithm functionally, then reports simulated work (hw::Phase
 * chains) and calls done() when the virtual-time execution finishes.
 */

#ifndef AVSCOPE_ROS_ROS_HH
#define AVSCOPE_ROS_ROS_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace av::ros {

class Node;
class RosGraph;

/**
 * Sensor-origin timestamps a message's payload derives from. A
 * fused detection carries both its camera's and its LiDAR scan's
 * acquisition times so every computation path of Table IV can be
 * traced to its sensor input.
 */
struct Origins
{
    sim::Tick lidar = 0;  ///< 0 = not derived from LiDAR
    sim::Tick camera = 0; ///< 0 = not derived from a camera frame

    /** Merge: keep the *oldest* nonzero origin per sensor. */
    Origins merged(const Origins &o) const;
};

/** ROS-style message header. */
struct Header
{
    std::uint64_t seq = 0;
    sim::Tick stamp = 0;   ///< creation time of this message
    Origins origins;       ///< carried through the pipeline
    std::string frameId;
};

/** A payload with its header and serialized size. */
template <typename T>
struct Stamped
{
    Header header;
    T data{};
    std::size_t bytes = 0;
    /**
     * Delivery time at the consuming subscription (set by the
     * middleware on deliver; 0 for messages at rest in a bag).
     * Node latency probes measure from here, so queue wait counts —
     * "from the moment an input arrives at the node until the
     * output is ready" (paper §III-B).
     */
    sim::Tick arrival = 0;
};

/**
 * A published payload at rest in the middleware: immutable and
 * shared. In the loaned (zero-copy) transport every subscriber of a
 * topic holds the *same* Stamped<T> the publisher produced; the
 * const in the alias is the whole contract — once published, nobody
 * writes the payload again (avlint's mutable-loan rule enforces the
 * publisher side statically).
 */
template <typename T>
using MessagePtr = std::shared_ptr<const Stamped<T>>;

/**
 * Inter-node communication cost parameters. Messages move between
 * nodes on one path: the publisher's message moves into one
 * immutable shared payload that subscribers borrow (zero-copy). The
 * *simulated* cost is still proportional to the serialized size (the
 * paper's "communication cost is part of every path"); only host-side
 * work and allocation are saved.
 */
struct TransportConfig
{
    /** Notify + wakeup cost of every delivery. */
    static constexpr sim::Tick kBaseLatency = 150 * sim::oneUs;
    double bandwidthGBs = 2.0; ///< intra-host serialize/copy rate
};

void
fields(auto &&ar, util::MaybeConst<TransportConfig> auto &c)
{
    auto &[bandwidthGBs] = c;
    ar(bandwidthGBs);
}

/**
 * What the transport actually did to payloads, host-side: the
 * receipts behind the zero-copy claim. Deterministic for a given
 * run configuration (counts follow the simulated message flow, not
 * the host scheduler), so they serialize into cached results.
 */
struct TransportCounters
{
    std::uint64_t published = 0;  ///< messages entering publish()
    std::uint64_t deliveries = 0; ///< per-subscriber deliveries
    /** Deep payload copies made by the transport: the private
     *  copies a duplicating fault forces. */
    std::uint64_t payloadCopies = 0;
    /** Deliveries that shared the publisher's immutable payload. */
    std::uint64_t loanedDeliveries = 0;
    /** Publishes that moved the payload without any copy
     *  (includes the single-subscriber fast path). */
    std::uint64_t movedPublishes = 0;
    /** Copies forced by transport faults (duplicate deliveries must
     *  not alias the loaned buffer). Equals payloadCopies. */
    std::uint64_t forcedCopies = 0;

    void
    add(const TransportCounters &o)
    {
        published += o.published;
        deliveries += o.deliveries;
        payloadCopies += o.payloadCopies;
        loanedDeliveries += o.loanedDeliveries;
        movedPublishes += o.movedPublishes;
        forcedCopies += o.forcedCopies;
    }
};

/** Per-subscription queue statistics (Table III source). */
struct SubscriptionStats
{
    std::uint64_t delivered = 0; ///< entered the queue
    std::uint64_t dropped = 0;   ///< overwritten before consumption
    std::uint64_t processed = 0; ///< handler invocations
    std::uint64_t crashDiscarded = 0; ///< lost to a node crash window
};

/**
 * What the transport does to one message on one topic. Policies are
 * merged: any drop wins, any corrupt wins, delays add, duplicate
 * counts add.
 */
struct Disruption
{
    bool drop = false;        ///< never leaves the publisher
    bool corrupt = false;     ///< arrives, fails validation, discarded
    sim::Tick extraDelay = 0; ///< added to the transport delay
    unsigned duplicates = 0;  ///< extra deliveries of the same seq
};

/**
 * Fault hub the injector installs transport policies into. Topics
 * consult it on every publish; with no policy registered for a topic
 * the publish path is byte-for-byte the unfaulted one.
 */
class TransportFaults
{
  public:
    using Policy =
        std::function<Disruption(const Header &, sim::Tick now)>;

    /** Install @p policy for @p topic (stacked; all consulted). */
    void addPolicy(const std::string &topic, Policy policy);

    bool hasPoliciesFor(const std::string &topic) const
    {
        return policies_.count(topic) != 0;
    }

    /** Merge every policy's verdict for this publication. */
    Disruption disruptionFor(const std::string &topic,
                             const Header &header,
                             sim::Tick now) const;

  private:
    std::map<std::string, std::vector<Policy>> policies_;
};

/**
 * One runtime subscription-queue-depth override, keyed by
 * (topic, subscriber node). Installed on the RosGraph *before* nodes
 * subscribe (RunConfig::queueDepths); Node::subscribe consults
 * RosGraph::effectiveQueueDepth so the declared literal in the stack
 * source stays intact — avgraph's static extraction keeps reading
 * the source of truth while the closed-loop optimizer explores
 * alternatives at runtime.
 */
struct QueueDepthOverride
{
    std::string topic;
    std::string node;
    std::size_t depth = 1;
};

void
fields(auto &&ar, util::MaybeConst<QueueDepthOverride> auto &c)
{
    auto &[topic, node, depth] = c;
    ar(topic, node, depth);
}

/** Type-erased subscription interface the Node dispatcher uses. */
class SubscriptionBase
{
  public:
    SubscriptionBase(std::string topic, Node *node, std::size_t depth)
        : topicName_(std::move(topic)), node_(node), depth_(depth)
    {}
    virtual ~SubscriptionBase() = default;

    /** Messages waiting in the queue. */
    virtual std::size_t queued() const = 0;
    /** Arrival time of the oldest queued message (valid if pending). */
    virtual sim::Tick headArrival() const = 0;
    /** Sequence number of the oldest queued message (valid if
     *  pending) — identifies the activation's trigger in traces. */
    virtual std::uint64_t headSeq() const = 0;
    /**
     * Pop the head and invoke the handler, passing it @p done to
     * call when the node's simulated execution finishes.
     */
    virtual void dispatchHead(std::function<void()> done) = 0;
    /**
     * Discard all queued messages (node crash). Returns the number
     * discarded; they count as crashDiscarded, not dropped.
     */
    virtual std::size_t clearPending() = 0;

    const std::string &topicName() const { return topicName_; }
    const SubscriptionStats &stats() const { return stats_; }
    Node *node() const { return node_; }
    /** Bounded queue capacity (static analysis cross-checks this). */
    std::size_t queueDepth() const { return depth_; }

  protected:
    std::string topicName_;
    Node *node_;
    std::size_t depth_;
    SubscriptionStats stats_;
};

/** Type-erased topic interface for enumeration/reporting. */
class TopicBase
{
  public:
    explicit TopicBase(std::string name) : name_(std::move(name)) {}
    virtual ~TopicBase() = default;

    const std::string &name() const { return name_; }
    std::uint64_t published() const { return published_; }
    virtual std::vector<const SubscriptionBase *> subscribers()
        const = 0;

    /** Host-side payload accounting for this topic. */
    const TransportCounters &transportCounters() const
    {
        return counters_;
    }

    /**
     * Node names that advertised this topic, in advertise order.
     * Empty for topics only ever published externally (bag replay,
     * probes) — those never pass a publisher name.
     */
    const std::vector<std::string> &advertisers() const
    {
        return advertisers_;
    }

    /** Record @p publisher as an advertiser ("" is anonymous). */
    void
    recordAdvertiser(const std::string &publisher)
    {
        if (publisher.empty())
            return;
        for (const std::string &a : advertisers_)
            if (a == publisher)
                return;
        advertisers_.push_back(publisher);
        // Publications are attributed to the first advertiser; a
        // topic nobody advertised traces as externally published.
        if (recorder_ && tracePublisher_ == 0)
            tracePublisher_ = recorder_->intern(advertisers_.front());
    }

    /**
     * Attach the per-drive recorder. Every publication feeds its
     * publish log from here on (and the full event stream when
     * tracing is enabled). Installed by RosGraph on creation and on
     * every already-registered topic.
     */
    void
    setTraceRecorder(trace::Recorder *recorder)
    {
        recorder_ = recorder;
        if (!recorder_)
            return;
        traceTopic_ = recorder_->intern(name_);
        if (!advertisers_.empty())
            tracePublisher_ =
                recorder_->intern(advertisers_.front());
    }

  protected:
    std::string name_;
    std::uint64_t published_ = 0;
    TransportCounters counters_;
    std::vector<std::string> advertisers_;
    trace::Recorder *recorder_ = nullptr;
    trace::Id traceTopic_ = 0;     ///< interned name_
    trace::Id tracePublisher_ = 0; ///< interned first advertiser
};

/**
 * A node: owns subscriptions, processes one message at a time.
 */
class Node
{
  public:
    /**
     * @param graph the middleware instance
     * @param name  unique node name (also the hw accounting owner)
     */
    Node(RosGraph &graph, std::string name);
    virtual ~Node();

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    const std::string &name() const { return name_; }
    RosGraph &graph() { return graph_; }
    bool busy() const { return busy_; }

    /**
     * Handler signature: receives the message and a done() callback
     * that MUST be invoked exactly once when the node's simulated
     * execution for this message finishes (typically from the last
     * hw::Phase completion).
     */
    template <typename T>
    using Handler =
        std::function<void(const Stamped<T> &, std::function<void()>)>;

    /** Subscribe to @p topic with a bounded queue. */
    template <typename T>
    void subscribe(const std::string &topic, std::size_t queue_depth,
                   Handler<T> handler);

    /** Subscriptions (for drop-stat reporting). */
    const std::vector<std::unique_ptr<SubscriptionBase>> &
    subscriptions() const
    {
        return subs_;
    }

    /** Called by subscriptions when new data arrives / node frees. */
    void tryDispatch();

    /**
     * Crash the node: queued inputs drain (counted as
     * crashDiscarded), new deliveries are discarded, and no handler
     * dispatches until respawn(). A handler already in flight runs to
     * completion — the process dies, the simulated work it already
     * scheduled does not un-happen.
     */
    void crash();

    /** Restart after a crash: onRespawn() state reset, then resume. */
    void respawn();

    bool down() const { return down_; }

    /**
     * Node-local state reset hook invoked by respawn(). Override to
     * model a fresh process image (cleared caches, lost tracks).
     */
    virtual void onRespawn() {}

  protected:
    friend class RosGraph;
    RosGraph &graph_;
    std::string name_;
    std::vector<std::unique_ptr<SubscriptionBase>> subs_;
    bool busy_ = false;
    bool down_ = false;
};

/**
 * Typed subscription with a drop-oldest bounded queue.
 *
 * The queue holds borrowed payloads: entries share ownership of the
 * publisher's immutable message instead of holding private copies,
 * so a point cloud sitting in three queues exists once. It is only
 * touched from the event-loop thread that runs the drive. Table III
 * falls out of the drop/delivery counters.
 */
template <typename T>
class Subscription final : public SubscriptionBase
{
  public:
    Subscription(std::string topic, Node *node, std::size_t depth,
                 Node::Handler<T> handler)
        : SubscriptionBase(std::move(topic), node, depth),
          handler_(std::move(handler))
    {
        AV_ASSERT(depth_ > 0, "queue depth must be positive");
    }

    /** Called by Topic<T> when a message reaches this subscriber. */
    void
    deliver(MessagePtr<T> msg, sim::Tick arrival)
    {
        recordDeliver(msg->header.seq, arrival);
        if (node_->down()) {
            ++stats_.crashDiscarded;
            return;
        }
        ++stats_.delivered;
        if (pending_.size() >= depth_) {
            pending_.pop_front();
            ++stats_.dropped;
        }
        pending_.push_back(Pending{arrival, std::move(msg)});
        node_->tryDispatch();
    }

    std::size_t queued() const override { return pending_.size(); }

    sim::Tick
    headArrival() const override
    {
        AV_ASSERT(!pending_.empty(), "headArrival on empty queue");
        return pending_.front().arrival;
    }

    std::uint64_t
    headSeq() const override
    {
        AV_ASSERT(!pending_.empty(), "headSeq on empty queue");
        return pending_.front().msg->header.seq;
    }

    void
    dispatchHead(std::function<void()> done) override
    {
        AV_ASSERT(!pending_.empty(), "dispatchHead on empty queue");
        Pending p = std::move(pending_.front());
        pending_.pop_front();
        ++stats_.processed;
        handler_(*p.msg, std::move(done));
    }

    std::size_t
    clearPending() override
    {
        const std::size_t n = pending_.size();
        pending_.clear();
        stats_.crashDiscarded += n;
        return n;
    }

  private:
    /**
     * Trace the message entering this queue. Defined inline in a
     * template member on purpose: it needs the complete RosGraph,
     * which is declared below — the body only instantiates at
     * deliver()'s use sites, where the whole header is visible.
     */
    void recordDeliver(std::uint64_t seq, sim::Tick arrival);

    struct Pending
    {
        sim::Tick arrival = 0;
        MessagePtr<T> msg;
    };
    std::deque<Pending> pending_;
    Node::Handler<T> handler_;
};

/** Typed topic: fan-out with per-subscriber transport delay. */
template <typename T>
class Topic final : public TopicBase
{
  public:
    using Message = Stamped<T>;
    using Tap = std::function<void(const Message &)>;

    Topic(std::string name, sim::EventQueue &eq,
          const TransportConfig &transport,
          const TransportFaults *faults = nullptr)
        : TopicBase(std::move(name)), eq_(eq), transport_(transport),
          faults_(faults)
    {}

    /** Register a subscriber (middleware-internal). */
    void addSubscriber(Subscription<T> *sub)
    {
        subs_.push_back(sub);
    }

    /**
     * Observe every publication's payload synchronously with zero
     * simulated cost (bag recording). Measurement reads the trace
     * recorder's publish log instead (avlint: probe-tap).
     */
    void addTap(Tap tap) { taps_.push_back(std::move(tap)); }

    /**
     * Publish. Subscribers receive the message after the transport
     * delay for its size. Taps and the recorder's publish log observe
     * the publication even when a transport fault suppresses delivery
     * — the publisher produced the message; the wire lost it.
     *
     * Ownership: the message is *loaned* to the transport. It moves
     * into one immutable shared payload that every subscriber
     * borrows (zero per-subscriber copies; with exactly one
     * subscriber the move is the whole transfer). Only
     * fault-duplicated deliveries, which model a second, independent
     * trip through the wire, get a private deep copy each. Either way
     * the caller's object is consumed: touching it after publish is a
     * bug (avlint: mutable-loan).
     */
    void
    publish(Message msg)
    {
        msg.header.seq = published_++;
        ++counters_.published;
        for (const Tap &tap : taps_)
            tap(msg);
        // Recorded before the fault consult, like the taps: the
        // publisher produced the message even if the wire loses it.
        if (recorder_)
            recorder_->recordPublish(
                traceTopic_, tracePublisher_, msg.header.seq,
                msg.header.stamp, msg.header.origins.lidar,
                msg.header.origins.camera, eq_.now());
        Disruption bad;
        if (faults_ && faults_->hasPoliciesFor(name_))
            bad = faults_->disruptionFor(name_, msg.header,
                                         eq_.now());
        if (bad.drop)
            return;
        const double bytes = static_cast<double>(msg.bytes);
        const sim::Tick delay =
            TransportConfig::kBaseLatency +
            static_cast<sim::Tick>(bytes /
                                   transport_.bandwidthGBs) +
            bad.extraDelay;
        if (bad.corrupt) {
            // The bytes cross the wire but fail validation at the
            // receiver; schedule the arrival so event timing matches
            // a real mangled frame, then discard.
            eq_.scheduleAfter(delay, [] {});
            return;
        }
        if (subs_.empty())
            return;
        // Every subscriber of one publication sees the same arrival
        // tick, so the delivery stamp can live in the immutable
        // payload itself — set before the loan is sealed. Taps run
        // first: bags record messages at rest (arrival 0), exactly
        // as v1 did.
        msg.arrival = eq_.now() + delay;
        if (bad.duplicates == 0) {
            // Zero-copy path: seal the payload once (a move — for
            // a point cloud this steals the buffer) and loan it to
            // every subscriber.
            ++counters_.movedPublishes;
            MessagePtr<T> loan =
                std::make_shared<const Stamped<T>>(std::move(msg));
            for (Subscription<T> *sub : subs_) {
                ++counters_.deliveries;
                ++counters_.loanedDeliveries;
                scheduleDelivery(sub, loan, delay);
            }
            return;
        }
        // A duplicating fault: every trip through the wire gets its
        // own private copy, so no delivery aliases another.
        const unsigned copies = 1 + bad.duplicates;
        for (Subscription<T> *sub : subs_) {
            for (unsigned i = 0; i < copies; ++i) {
                ++counters_.deliveries;
                ++counters_.payloadCopies;
                ++counters_.forcedCopies;
                scheduleDelivery(
                    sub, std::make_shared<const Stamped<T>>(msg),
                    delay);
            }
        }
    }

    std::vector<const SubscriptionBase *>
    subscribers() const override
    {
        std::vector<const SubscriptionBase *> out;
        for (const auto *s : subs_)
            out.push_back(s);
        return out;
    }

  private:
    void
    scheduleDelivery(Subscription<T> *sub, MessagePtr<T> msg,
                     sim::Tick delay)
    {
        eq_.scheduleAfter(delay,
                          [this, sub, msg = std::move(msg)] {
                              sub->deliver(msg, eq_.now());
                          });
    }

    sim::EventQueue &eq_;
    TransportConfig transport_;
    const TransportFaults *faults_;
    std::vector<Subscription<T> *> subs_;
    std::vector<Tap> taps_;
};

/** Handle for publishing to a topic. */
template <typename T>
class Publisher
{
  public:
    Publisher() = default;
    explicit Publisher(Topic<T> *topic) : topic_(topic) {}

    /** Publish @p data with explicit serialized size. */
    void
    publish(Header header, T data, std::size_t bytes)
    {
        AV_ASSERT(topic_, "publishing through a null Publisher");
        Stamped<T> msg;
        msg.header = std::move(header);
        msg.data = std::move(data);
        msg.bytes = bytes;
        topic_->publish(std::move(msg));
    }

    bool valid() const { return topic_ != nullptr; }
    const std::string &topicName() const { return topic_->name(); }

  private:
    Topic<T> *topic_ = nullptr;
};

/**
 * The middleware instance: topic registry + node registry, bound to
 * one Machine.
 */
class RosGraph
{
  public:
    explicit RosGraph(hw::Machine &machine,
                      const TransportConfig &transport =
                          TransportConfig());

    RosGraph(const RosGraph &) = delete;
    RosGraph &operator=(const RosGraph &) = delete;

    hw::Machine &machine() { return machine_; }
    sim::EventQueue &eventQueue() { return machine_.eventQueue(); }
    const TransportConfig &transport() const { return transport_; }

    /** Get-or-create the typed topic @p name. */
    template <typename T>
    Topic<T> &
    topic(const std::string &name)
    {
        auto it = topics_.find(name);
        if (it == topics_.end()) {
            auto created = std::make_unique<Topic<T>>(
                name, eventQueue(), transport_, &faults_);
            Topic<T> *raw = created.get();
            raw->setTraceRecorder(recorder_);
            topics_.emplace(name, std::move(created));
            return *raw;
        }
        auto *typed = dynamic_cast<Topic<T> *>(it->second.get());
        if (!typed)
            util::panic("topic '", name,
                        "' re-declared with a different type");
        return *typed;
    }

    /**
     * Create a Publisher for @p name. @p publisher, when given, is
     * the advertising node's name — the middleware records it so the
     * registered topology can be enumerated (topology.hh) and
     * cross-checked against avgraph's static extraction.
     */
    template <typename T>
    Publisher<T>
    advertise(const std::string &name,
              const std::string &publisher = {})
    {
        Topic<T> &t = topic<T>(name);
        t.recordAdvertiser(publisher);
        return Publisher<T>(&t);
    }

    /** All topics, for reporting. */
    std::vector<const TopicBase *> topics() const;

    /** Host-side payload accounting summed across all topics. */
    TransportCounters transportCounters() const;

    /** The named topic if it exists (type-erased), else nullptr. */
    TopicBase *findTopic(const std::string &name);

    /** All registered nodes. */
    const std::vector<Node *> &nodes() const { return nodes_; }

    /** The named node if registered, else nullptr. */
    Node *findNode(const std::string &name);

    /** Transport-fault hub every topic of this graph consults. */
    TransportFaults &faults() { return faults_; }

    /**
     * Attach @p recorder as the graph's single recording surface:
     * every existing and future topic feeds it. Pass nullptr to
     * detach. The recorder must outlive the graph's topics.
     */
    void setTraceRecorder(trace::Recorder *recorder);

    /** The attached recorder, or nullptr. */
    trace::Recorder *traceRecorder() const { return recorder_; }

    /**
     * Install runtime queue-depth overrides. Must be called before
     * the affected nodes subscribe; Node::subscribe consults
     * effectiveQueueDepth at subscription time.
     */
    void setQueueDepthOverrides(
        std::vector<QueueDepthOverride> overrides);

    /**
     * The queue depth one (topic, node) subscription actually gets:
     * the last matching override, or the @p declared source literal.
     */
    std::size_t effectiveQueueDepth(const std::string &topic,
                                    const std::string &node,
                                    std::size_t declared) const;

    void registerNode(Node *node);
    void unregisterNode(Node *node);

  private:
    hw::Machine &machine_;
    TransportConfig transport_;
    TransportFaults faults_;
    std::map<std::string, std::unique_ptr<TopicBase>> topics_;
    std::vector<Node *> nodes_;
    trace::Recorder *recorder_ = nullptr;
    std::vector<QueueDepthOverride> queueOverrides_;
};

// Node template methods -------------------------------------------------

template <typename T>
void
Node::subscribe(const std::string &topic_name, std::size_t queue_depth,
                Handler<T> handler)
{
    const std::size_t depth =
        graph_.effectiveQueueDepth(topic_name, name_, queue_depth);
    auto sub = std::make_unique<Subscription<T>>(
        topic_name, this, depth, std::move(handler));
    graph_.topic<T>(topic_name).addSubscriber(sub.get());
    subs_.push_back(std::move(sub));
}

// Subscription template methods ------------------------------------------

template <typename T>
void
Subscription<T>::recordDeliver(std::uint64_t seq, sim::Tick arrival)
{
    trace::Recorder *rec = node_->graph().traceRecorder();
    if (!rec || !rec->enabled())
        return;
    rec->recordDeliver(rec->intern(topicName_),
                       rec->intern(node_->name()), seq, arrival);
}

} // namespace av::ros

#endif // AVSCOPE_ROS_ROS_HH
