#include "trace/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace av::trace {

Span::~Span()
{
    if (recorder_)
        recorder_->endActivation(index_, 0);
}

void
Span::end(sim::Tick now)
{
    if (!recorder_)
        return;
    recorder_->endActivation(index_, now);
    recorder_ = nullptr;
}

Id
Recorder::intern(const std::string &name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const Id id = static_cast<Id>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

const std::string &
Recorder::name(Id id) const
{
    AV_ASSERT(id < names_.size(), "unknown trace id ", id);
    return names_[id];
}

Id
Recorder::find(const std::string &name) const
{
    const auto it = ids_.find(name);
    return it == ids_.end() ? 0 : it->second;
}

void
Recorder::recordPublish(Id topic, Id publisher, std::uint64_t seq,
                        sim::Tick stamp, sim::Tick origin_lidar,
                        sim::Tick origin_camera, sim::Tick now)
{
    publishes_[topic].push_back(
        PublishRecord{now, stamp, seq, origin_lidar, origin_camera});
    if (const auto open = open_.find(publisher); open != open_.end())
        activations_[open->second].published = true;
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::Publish;
    ev.tick = now;
    ev.topic = topic;
    ev.seq = seq;
    ev.node = publisher;
    ev.stamp = stamp;
    ev.originLidar = origin_lidar;
    ev.originCamera = origin_camera;
    events_.push_back(ev);
}

void
Recorder::recordDeliver(Id topic, Id subscriber, std::uint64_t seq,
                        sim::Tick arrival)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::Deliver;
    ev.tick = arrival;
    ev.topic = topic;
    ev.seq = seq;
    ev.node = subscriber;
    ev.arrival = arrival;
    events_.push_back(ev);
}

Span
Recorder::beginActivation(Id node, Id topic, std::uint64_t seq,
                          sim::Tick arrival, sim::Tick now)
{
    AV_ASSERT(open_.count(node) == 0,
              "second open activation of node ", name(node));
    activations_.push_back(
        ActivationRecord{node, topic, seq, arrival, now, now, false});
    open_[node] = activations_.size() - 1;
    return Span(this, activations_.size() - 1);
}

void
Recorder::endActivation(std::size_t index, sim::Tick now)
{
    AV_ASSERT(index < activations_.size(),
              "activation span index out of range");
    ActivationRecord &act = activations_[index];
    if (now > act.start)
        act.end = now;
    open_.erase(act.node);
}

void
Recorder::recordCpuTask(Id owner, sim::Tick submitted, sim::Tick now,
                        double nominal_ns)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::CpuTask;
    ev.tick = submitted;
    ev.node = owner;
    ev.start = submitted;
    ev.end = now;
    ev.nominalNs = nominal_ns;
    events_.push_back(ev);
}

void
Recorder::recordGpuKernel(Id owner, sim::Tick started, sim::Tick now)
{
    if (!enabled_)
        return;
    Event ev;
    ev.kind = EventKind::GpuKernel;
    ev.tick = started;
    ev.node = owner;
    ev.start = started;
    ev.end = now;
    events_.push_back(ev);
}

const std::vector<PublishRecord> *
Recorder::publishLog(Id topic) const
{
    const auto it = publishes_.find(topic);
    return it == publishes_.end() ? nullptr : &it->second;
}

const std::vector<PublishRecord> *
Recorder::publishLog(const std::string &topic) const
{
    const Id id = find(topic);
    return id == 0 ? nullptr : publishLog(id);
}

const PublishRecord *
Recorder::lastPublish(const std::string &topic) const
{
    const std::vector<PublishRecord> *log = publishLog(topic);
    return (log && !log->empty()) ? &log->back() : nullptr;
}

std::vector<Event>
Recorder::canonicalEvents() const
{
    std::vector<Event> out = events_;
    // Appending the activations keeps the sorted order: events of
    // different kinds never compare equal, and the sort is stable.
    if (enabled_)
        for (const ActivationRecord &a : activations_)
            out.push_back(Event{.kind = EventKind::Activation,
                                .tick = a.start, .topic = a.topic,
                                .seq = a.seq, .node = a.node,
                                .arrival = a.arrival,
                                .start = a.start, .end = a.end});
    std::stable_sort(
        out.begin(), out.end(),
        [this](const Event &a, const Event &b) {
            if (a.tick != b.tick)
                return a.tick < b.tick;
            const std::string &ta = name(a.topic);
            const std::string &tb = name(b.topic);
            if (ta != tb)
                return ta < tb;
            if (a.seq != b.seq)
                return a.seq < b.seq;
            if (a.kind != b.kind)
                return static_cast<int>(a.kind) <
                       static_cast<int>(b.kind);
            return name(a.node) < name(b.node);
        });
    return out;
}

} // namespace av::trace
