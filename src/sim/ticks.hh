/**
 * @file
 * The virtual time base.
 *
 * All simulated time in avscope is expressed in Ticks of one
 * nanosecond, mirroring gem5's convention. The paper instruments
 * Autoware with std::chrono wall-clock probes; our probes read the
 * event queue's virtual clock instead, so results are deterministic
 * and independent of the host machine.
 */

#ifndef AVSCOPE_SIM_TICKS_HH
#define AVSCOPE_SIM_TICKS_HH

#include <cstdint>

namespace av::sim {

/** Virtual time in nanoseconds. */
using Tick = std::uint64_t;

/** Maximum representable tick; used as "never". */
constexpr Tick maxTick = ~Tick(0);

/** One microsecond in ticks. */
constexpr Tick oneUs = 1000ull;

/** One millisecond in ticks. */
constexpr Tick oneMs = 1000ull * oneUs;

/** One second in ticks. */
constexpr Tick oneSec = 1000ull * oneMs;

/** Convert seconds (double) to ticks, rounding to nearest. */
constexpr Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * static_cast<double>(oneSec) + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneSec);
}

/** Convert ticks to milliseconds. */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneMs);
}

} // namespace av::sim

#endif // AVSCOPE_SIM_TICKS_HH
