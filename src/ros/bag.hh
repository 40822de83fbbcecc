/**
 * @file
 * ROSBAG equivalent: a drive's sensor messages, filled channel by
 * channel (world::recordDrive), replayed later.
 *
 * The paper's whole methodology rests on replaying one fixed ROSBAG
 * into differently-configured stacks (§III-A, Fig. 3): every detector
 * scenario sees byte-identical sensor input. Bag gives avscope the
 * same property — the world simulator records a drive once, and the
 * three detector configurations replay it.
 */

#ifndef AVSCOPE_ROS_BAG_HH
#define AVSCOPE_ROS_BAG_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ros/ros.hh"

namespace av::ros {

/** Type-erased channel interface. */
class BagChannelBase
{
  public:
    explicit BagChannelBase(std::string name) : name_(std::move(name)) {}
    virtual ~BagChannelBase() = default;

    const std::string &name() const { return name_; }
    virtual std::size_t count() const = 0;

    /**
     * Schedule every stored message for publication into @p graph at
     * its recorded stamp shifted by @p offset. The events refer to
     * the stored messages, so the channel must outlive every event
     * it scheduled.
     */
    virtual void scheduleReplay(RosGraph &graph,
                                sim::Tick offset) const = 0;

  protected:
    std::string name_;
};

/** Typed channel holding recorded messages in stamp order. */
template <typename T>
class BagChannel final : public BagChannelBase
{
  public:
    using BagChannelBase::BagChannelBase;

    void
    add(Stamped<T> msg)
    {
        messages_.push_back(std::move(msg));
    }

    std::size_t count() const override { return messages_.size(); }

    void
    scheduleReplay(RosGraph &graph, sim::Tick offset) const override
    {
        Topic<T> &topic = graph.topic<T>(name_);
        sim::EventQueue &eq = graph.eventQueue();
        for (const Stamped<T> &msg : messages_) {
            const sim::Tick when = msg.header.stamp + offset;
            // The event holds a reference, not a copy: the one
            // copy per replayed message — the "sensor driver"
            // producing a fresh frame from the recording — is
            // publish()'s by-value parameter, made when the event
            // fires. A replay thus holds only the messages in
            // flight, the bag's own copy stays pristine for the
            // next replay, and the two-reference capture fits
            // std::function's small buffer.
            eq.schedule(std::max(when, eq.now()),
                        [&topic, &msg] { topic.publish(msg); });
        }
    }

    const std::vector<Stamped<T>> &messages() const
    {
        return messages_;
    }

  private:
    std::vector<Stamped<T>> messages_;
};

/**
 * A collection of recorded channels.
 */
class Bag
{
  public:
    /** Get-or-create the typed channel @p name. */
    template <typename T>
    BagChannel<T> &
    channel(const std::string &name)
    {
        auto it = channels_.find(name);
        if (it == channels_.end()) {
            auto created = std::make_unique<BagChannel<T>>(name);
            BagChannel<T> *raw = created.get();
            channels_.emplace(name, std::move(created));
            return *raw;
        }
        auto *typed =
            dynamic_cast<BagChannel<T> *>(it->second.get());
        if (!typed)
            util::panic("bag channel '", name,
                        "' used with a different type");
        return *typed;
    }

    /**
     * Schedule all channels for replay into @p graph. The scheduled
     * events refer to this bag's messages: the bag must outlive
     * every pending replay event, and nothing may add to a channel
     * while they are pending.
     */
    void
    replay(RosGraph &graph, sim::Tick offset = 0) const
    {
        for (const auto &[name, chan] : channels_)
            chan->scheduleReplay(graph, offset);
    }

    /** Total recorded messages. */
    std::size_t
    totalMessages() const
    {
        std::size_t n = 0;
        for (const auto &[name, chan] : channels_)
            n += chan->count();
        return n;
    }

    std::vector<const BagChannelBase *>
    channels() const
    {
        std::vector<const BagChannelBase *> out;
        for (const auto &[name, chan] : channels_)
            out.push_back(chan.get());
        return out;
    }

  private:
    std::map<std::string, std::unique_ptr<BagChannelBase>> channels_;
};

} // namespace av::ros

#endif // AVSCOPE_ROS_BAG_HH
