#include "sim/event_queue.hh"

#include "util/logging.hh"

namespace av::sim {

EventId
EventQueue::schedule(Tick when, std::function<void()> fn)
{
    AV_ASSERT(when >= now_, "scheduling into the past: when=", when,
              " now=", now_);
    AV_ASSERT(fn, "scheduling a null callback");
    const EventId id = nextId_++;
    queue_.push(Entry{when, id, std::move(fn)});
    ++live_;
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, std::function<void()> fn)
{
    AV_ASSERT(delay <= maxTick - now_, "tick overflow");
    return schedule(now_ + delay, std::move(fn));
}

void
EventQueue::deschedule(EventId id)
{
    if (id == 0 || id >= nextId_)
        return;
    // Only mark; lazily dropped when it reaches the head.
    if (cancelled_.insert(id).second && live_ > 0)
        --live_;
}

bool
EventQueue::isCancelled(EventId id) const
{
    return cancelled_.count(id) > 0;
}

void
EventQueue::popCancelled()
{
    while (!queue_.empty() && isCancelled(queue_.top().id)) {
        cancelled_.erase(queue_.top().id);
        queue_.pop();
    }
}

bool
EventQueue::step()
{
    popCancelled();
    if (queue_.empty())
        return false;
    Entry e = queue_.top();
    queue_.pop();
    AV_ASSERT(e.when >= now_, "event queue went backwards");
    now_ = e.when;
    --live_;
    ++executed_;
    e.fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t ran = 0;
    while (true) {
        popCancelled();
        if (queue_.empty() || queue_.top().when > limit)
            break;
        step();
        ++ran;
    }
    // Advance the clock to the horizon so back-to-back runUntil()
    // calls see monotonic time even across quiet periods.
    if (limit != maxTick && now_ < limit)
        now_ = limit;
    return ran;
}

} // namespace av::sim
