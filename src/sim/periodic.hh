/**
 * @file
 * Periodic task helper for the event queue.
 *
 * Sensors (10 Hz LiDAR/camera) and the 1 Hz profiling samplers
 * (atop / nvidia-smi equivalents, paper §III-B) are periodic; this
 * wraps the self-rescheduling pattern with optional phase and jitter.
 */

#ifndef AVSCOPE_SIM_PERIODIC_HH
#define AVSCOPE_SIM_PERIODIC_HH

#include <functional>

#include "sim/event_queue.hh"
#include "util/random.hh"

namespace av::sim {

/**
 * Fires a callback every @p period ticks until stopped.
 */
class PeriodicTask
{
  public:
    /**
     * @param eq     queue to schedule on
     * @param period nominal interval between firings
     * @param fn     callback; receives the firing index (0-based)
     */
    PeriodicTask(EventQueue &eq, Tick period,
                 std::function<void(std::uint64_t)> fn);

    ~PeriodicTask();

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    /**
     * Arm the task. First firing at now + @p phase. With
     * @p jitter_fraction > 0 each subsequent interval is perturbed
     * uniformly by ±fraction·period (sensor clocks are never perfect;
     * this also decorrelates the LiDAR/camera phase over a drive).
     */
    void start(Tick phase = 0, double jitter_fraction = 0.0,
               std::uint64_t seed = 0);

    /** Cancel future firings. */
    void stop();

    /** True between start() and stop() (or destruction). */
    bool running() const { return running_; }

  private:
    void fire();
    void scheduleNext(Tick delay);

    EventQueue &eq_;
    Tick period_;
    std::function<void(std::uint64_t)> fn_;
    util::Rng rng_;
    double jitter_ = 0.0;
    EventId pendingEvent_ = 0;
    std::uint64_t count_ = 0;
    bool running_ = false;
};

} // namespace av::sim

#endif // AVSCOPE_SIM_PERIODIC_HH
