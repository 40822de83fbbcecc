/**
 * @file
 * Discrete-event simulation core.
 *
 * A single-threaded event queue drives the whole machine model: node
 * callbacks, CPU scheduler quanta, GPU kernel completions, sensor
 * firings and the 1 Hz profiling samplers are all events. Equal-time
 * events fire in scheduling (FIFO) order, making runs deterministic.
 */

#ifndef AVSCOPE_SIM_EVENT_QUEUE_HH
#define AVSCOPE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/ticks.hh"

namespace av::sim {

/** Opaque handle used to cancel a pending event. */
using EventId = std::uint64_t;

/**
 * Time-ordered queue of callbacks.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current virtual time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when (>= now).
     * @return a handle usable with deschedule().
     */
    EventId schedule(Tick when, std::function<void()> fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    EventId scheduleAfter(Tick delay, std::function<void()> fn);

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * event is a harmless no-op (the common pattern when a completion
     * event races a preemption event).
     */
    void deschedule(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Run events until the queue drains or @p limit is passed.
     * Events scheduled exactly at @p limit still run; the clock never
     * exceeds @p limit. @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Execute exactly one event if any; @return true if one ran. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry
    {
        Tick when;
        EventId id;     ///< also the FIFO tiebreaker
        std::function<void()> fn;
        bool operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return id > o.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    std::unordered_set<EventId> cancelled_;
    Tick now_ = 0;
    EventId nextId_ = 1;
    std::size_t live_ = 0;
    std::uint64_t executed_ = 0;

    bool isCancelled(EventId id) const;
    void popCancelled();
};

} // namespace av::sim

#endif // AVSCOPE_SIM_EVENT_QUEUE_HH
