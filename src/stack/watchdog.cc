#include "stack/watchdog.hh"

#include "perception/nodes.hh"
#include "util/logging.hh"

namespace av::stack {

StackWatchdog::StackWatchdog(ros::RosGraph &graph)
    : eq_(graph.eventQueue()), recorder_(graph.traceRecorder()),
      task_(graph.eventQueue(), kPeriod,
            [this](std::uint64_t) { sample(); })
{
    AV_ASSERT(recorder_, "the stack watchdog reads the trace recorder");
    for (const char *name : perception::topics::watched)
        if (graph.findTopic(name)) // absent: subsystem disabled
            watched_.push_back(WatchedTopic{name, false, 0});
}

void
StackWatchdog::sample()
{
    const sim::Tick now = eq_.now();
    for (WatchedTopic &w : watched_) {
        const trace::PublishRecord *last =
            recorder_->lastPublish(w.topic);
        if (!last)
            continue; // silence before first publication ≠ outage
        const bool stale_now = now - last->stamp > kStaleAfter;
        if (stale_now && !w.stale)
            ++w.staleEvents;
        w.stale = stale_now;
    }
}

std::uint64_t
StackWatchdog::totalStaleEvents() const
{
    std::uint64_t total = 0;
    for (const WatchedTopic &w : watched_)
        total += w.staleEvents;
    return total;
}

} // namespace av::stack
